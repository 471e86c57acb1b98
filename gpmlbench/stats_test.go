package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort first
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantV float64
		wantQ float64
		ok    bool
	}{
		{n: 10, ok: false},                           // nothing has ten samples above it
		{n: 11, wantV: 1, wantQ: 1.0 / 11, ok: true}, // only the minimum qualifies
		{n: 100, wantV: 90, wantQ: 0.90, ok: true},   // p99 would leave one beyond; fall back to p90
		{n: 1000, wantV: 990, wantQ: 0.99, ok: true}, // p99 leaves exactly ten beyond
		{n: 2000, wantV: 1980, wantQ: 0.99, ok: true},
	}
	for _, c := range cases {
		v, q, ok := tail(seq(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			continue
		}
		if v != c.wantV || q != c.wantQ {
			t.Errorf("n=%d: tail = %v at q=%v, want %v at q=%v", c.n, v, q, c.wantV, c.wantQ)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap by
	// 10, and c [90,120) that runs past the root's end; a has a nested
	// child d [15,25). Self times: root = 100 - |[10,60) ∪ [90,100)| = 40,
	// a = 30 - 10 = 20, b = 30, c = 30, d = 10.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "d", Start: 15, End: 25, Parent: 1},
	}
	want := []time.Duration{40, 20, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeChildCoveringParent(t *testing.T) {
	spans := []span{
		{Name: "p", Start: 5, End: 10, Parent: -1},
		{Name: "k1", Start: 0, End: 8, Parent: 0},
		{Name: "k2", Start: 7, End: 20, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("fully covered parent self = %d, want 0", got)
	}
}

func TestMergeLogsRebasesParents(t *testing.T) {
	origin := time.Unix(0, 0)
	a, b := newSpanLog(origin), newSpanLog(origin)
	pa := a.record("root", origin, origin.Add(10), -1, 1)
	a.record("kid", origin.Add(1), origin.Add(2), pa, 1)
	pb := b.record("root", origin, origin.Add(10), -1, 2)
	b.record("kid", origin.Add(3), origin.Add(9), pb, 2)
	spans := mergeLogs(a, nil, b)
	if spans[3].Parent != 2 {
		t.Fatalf("second log's child points at %d, want 2", spans[3].Parent)
	}
	self := selfTimes(spans)
	if self[0] != 9 || self[2] != 4 {
		t.Errorf("self times = %v", self)
	}
	var nilLog *spanLog
	if id := nilLog.record("x", origin, origin, -1, 0); id != -1 {
		t.Errorf("nil log returned id %d", id)
	}
}

// fakeClock advances only when the code under test sleeps or an
// operation spends time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLatencyFromDueTimeWhenLate(t *testing.T) {
	start := time.Unix(100, 0)
	c := &fakeClock{now: start}
	const iv = 10 * time.Millisecond
	// Operation 0 stalls for 45ms; the rest take 1ms. Operations 1-4 were
	// due while 0 ran, so the generator issues them late, back to back.
	cost := func(i int) time.Duration {
		if i == 0 {
			return 45 * time.Millisecond
		}
		return time.Millisecond
	}
	samples := openLoop(c, start, iv, start.Add(100*time.Millisecond), func(i int) error {
		c.now = c.now.Add(cost(i))
		return nil
	})
	if len(samples) != 10 {
		t.Fatalf("issued %d operations, want 10 (one per due slot)", len(samples))
	}
	// Issue times: 0, 45, 46, 47, 48, then on schedule from 50.
	wantLat := []time.Duration{45, 36, 27, 18, 9, 1, 1, 1, 1, 1}
	wantLate := []time.Duration{0, 35, 26, 17, 8, 0, 0, 0, 0, 0}
	for i, s := range samples {
		if got := s.latency(); got != wantLat[i]*time.Millisecond {
			t.Errorf("op %d latency = %v, want %vms (from due time, not issue time)", i, got, int(wantLat[i]))
		}
		if got := s.lateness(); got != wantLate[i]*time.Millisecond {
			t.Errorf("op %d lateness = %v, want %vms", i, got, int(wantLate[i]))
		}
		if service := s.done.Sub(s.issued); i > 0 && service != time.Millisecond {
			t.Errorf("op %d service time = %v", i, service)
		}
	}
}

func TestFingerprintIsOrderInsensitiveMultiset(t *testing.T) {
	var a, b, c fingerprint
	a.add([]byte("x"))
	a.add([]byte("y"))
	b.add([]byte("y"))
	b.add([]byte("x"))
	c.add([]byte("x"))
	c.add([]byte("x"))
	if a != b {
		t.Errorf("order changed the fingerprint: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("{x,y} and {x,x} collide: %v", a)
	}
	var d, e fingerprint
	d.addStrings("ab", "c")
	e.addStrings("a", "bc")
	if d == e {
		t.Errorf("field boundaries are ambiguous")
	}
}

func TestFingerprintJSONKeepsAllBits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.json")
	want := fingerprint{Rows: 3, Sum: 1<<64 - 3}
	for _, key := range []string{"1", "2"} { // the second merge re-reads the first
		if err := mergeJSON(path, key, map[string]fingerprint{"x": want}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]fingerprint
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got["1"]["x"] != want || got["2"]["x"] != want {
		t.Errorf("round trip lost bits: %+v", got)
	}
}
