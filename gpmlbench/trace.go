package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the layer boundary. Spans live in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in the same log; -1 for a root
	Req    int64  `json:"req"`    // request (or operation) the span belongs to
}

// spanLog is one goroutine's span buffer. A nil *spanLog records nothing,
// so untraced runs pass nil and pay only a nil check per call site.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

// record appends a finished interval and returns its index (-1 on a nil
// log), for use as a child's parent.
func (l *spanLog) record(name string, start, end time.Time, parent int, req int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name:   name,
		Start:  int64(start.Sub(l.origin)),
		End:    int64(end.Sub(l.origin)),
		Parent: parent,
		Req:    req,
	})
	return len(l.spans) - 1
}

// mergeLogs concatenates per-goroutine logs, rebasing parent indices.
func mergeLogs(logs ...*spanLog) []span {
	var out []span
	for _, l := range logs {
		if l == nil {
			continue
		}
		off := len(out)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children clipped to
// the parent's interval, overlaps counted once).
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
		}
		out[i] = time.Duration(s.End - s.Start - covered(s.Start, s.End, ivs))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			if iv[1] > curB {
				curB = iv[1]
			}
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTimes groups spans by name: per-span self times and durations.
type layerTimes struct {
	self map[string][]float64 // ms
	dur  map[string][]float64 // ms
}

func reduceSpans(spans []span) layerTimes {
	lt := layerTimes{self: map[string][]float64{}, dur: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		lt.self[s.Name] = append(lt.self[s.Name], ms(self[i]))
		lt.dur[s.Name] = append(lt.dur[s.Name], ms(time.Duration(s.End-s.Start)))
	}
	return lt
}

// printBudget prints where the traced operations' time went: the summed
// self time of each span name inside "request" trees, as a share of the
// summed request time. Measured children partition their parent's
// interval, so their shares add up to 100%. A replayed HTTP request can
// add up to more: its in-process replay is laid onto the request's
// timeline, and under load the replay may run longer than the request did.
func printBudget(spans []span) {
	self := selfTimes(spans)
	byName := map[string]float64{}
	total := 0.0
	for i, s := range spans {
		r := i
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		if spans[r].Name != "request" {
			continue // probes time layers outside the operation
		}
		byName[s.Name] += ms(self[i])
		if r == i {
			total += ms(time.Duration(s.End - s.Start))
		}
	}
	if total == 0 {
		return
	}
	fmt.Printf("-- layer self-time budget over %.1f ms of traced requests\n", total)
	sum := 0.0
	for _, n := range sortedKeys(byName) {
		fmt.Printf("budget %-28s %6.2f%%\n", n, 100*byName[n]/total)
		sum += byName[n]
	}
	fmt.Printf("budget %-28s %6.2f%%\n", "(sum)", 100*sum/total)
}

// writeSpans writes the spans as JSON lines under dir/traces.
func writeSpans(dir, name string, spans []span) (string, error) {
	tdir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(tdir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
