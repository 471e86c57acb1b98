package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/value"
	"gpml/internal/wal"
)

// write_mixed: a durable overlay (WAL at fsync=interval) seeded with SNB
// SF 0.1, written by a fixed-rate open-loop writer while one closed-loop
// connection reads the serve_point mix over HTTP; then a checkpoint, a
// fixed tail of batches, a clean close, and timed recoveries.

const (
	writeSF        = 0.1
	writeConns     = 1
	writeRate      = 300 // batches per second
	syncEvery      = 50 * time.Millisecond
	deleteLag      = 64  // each batch tombstones the like added this many batches earlier
	tailBatches    = 300 // applied after the synchronous checkpoint; replayed by every recovery
	recoveryRuns   = 3
	writerSeedSalt = 104729
)

// durableOptions are the store's settings: gpmld's -fsync=interval at its
// default 50ms period.
func durableOptions(dir string) graph.DurableOptions {
	return graph.DurableOptions{Dir: dir, Fsync: wal.SyncInterval, SyncEvery: syncEvery}
}

// writer stages the seeded mixed batches: a new Post with its hasCreator
// edge and two likes, a property override on a person, and a tombstone
// on an earlier batch's like.
type writer struct {
	rng              *rand.Rand
	persons, posts   int
	creator, visitor *rand.Zipf
	n                int // batches staged so far
}

func newWriter(seed int64, persons, posts int) *writer {
	rng := rand.New(rand.NewSource(seed))
	return &writer{
		rng:     rng,
		persons: persons,
		posts:   posts,
		creator: rand.NewZipf(rng, zipfS, zipfV, uint64(persons-1)),
		visitor: rand.NewZipf(rng, zipfS, zipfV, uint64(persons-1)),
	}
}

func person(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("pers%d", i)) }

func (w *writer) batch(ov *graph.Overlay) *graph.Batch {
	i := w.n
	w.n++
	post := graph.NodeID(fmt.Sprintf("wpost%d", i))
	b := ov.Begin()
	b.AddNode(post, []string{"Message", "Post"}, map[string]value.Value{
		"creationDate": value.Str(fmt.Sprintf("2024-%02d-%02d", 1+i%12, 1+i%28)),
		"length":       value.Int(int64(10 + i%990)),
	})
	b.AddEdge(graph.EdgeID(fmt.Sprintf("whc%d", i)), post, person(int(w.creator.Uint64())), []string{"hasCreator"}, nil)
	b.AddEdge(graph.EdgeID(fmt.Sprintf("wlk%da", i)), person(w.rng.Intn(w.persons)), post, []string{"likes"},
		map[string]value.Value{"date": value.Int(int64(i))})
	b.AddEdge(graph.EdgeID(fmt.Sprintf("wlk%db", i)), person(w.rng.Intn(w.persons)),
		graph.NodeID(fmt.Sprintf("post%d", w.rng.Intn(w.posts))), []string{"likes"}, nil)
	b.SetNodeProp(person(int(w.visitor.Uint64())), "lastSeen", value.Int(int64(i)))
	if i >= deleteLag {
		b.DeleteEdge(graph.EdgeID(fmt.Sprintf("wlk%db", i-deleteLag)))
	}
	return b
}

// importBatch is the generated graph as the durable store's first batch,
// as gpmld imports its boot graph into a fresh data directory.
func importBatch(ov *graph.Overlay, g *graph.Graph) *graph.Batch {
	b := ov.Begin()
	g.Nodes(func(n *graph.Node) bool {
		b.AddNode(n.ID, n.Labels, n.Props)
		return true
	})
	g.Edges(func(e *graph.Edge) bool {
		if e.Direction == graph.Directed {
			b.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			b.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		return true
	})
	return b
}

// storeFingerprint digests every live node and edge: ids, labels,
// properties and endpoints.
func storeFingerprint(st graph.Store) fingerprint {
	var fp fingerprint
	props := func(p map[string]value.Value) string {
		ks := sortedKeys(p)
		parts := make([]string, len(ks))
		for i, k := range ks {
			parts[i] = k + "=" + p[k].Kind().String() + ":" + p[k].String()
		}
		return strings.Join(parts, ",")
	}
	st.Nodes(func(n *graph.Node) bool {
		fp.addStrings("N", string(n.ID), strings.Join(n.Labels, ","), props(n.Props))
		return true
	})
	st.Edges(func(e *graph.Edge) bool {
		fp.addStrings("E", string(e.ID), string(e.Source), string(e.Target), fmt.Sprint(e.Direction),
			strings.Join(e.Labels, ","), props(e.Props))
		return true
	})
	return fp
}

type writeEnv struct {
	dir string
	ov  *graph.Overlay
	srv *served
}

func (e *writeEnv) close() error {
	err := e.srv.stop()
	if cerr := e.ov.CloseDurable(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

func runWriteMixed(cfg config) (*report, error) {
	if err := checkLayouts(); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.out, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := newReport()
	var genS, importS []float64
	setupN := 0
	env, setups, err := repeatSetup(setupRuns, func() (*writeEnv, error) {
		setupN++
		dir := filepath.Join(root, fmt.Sprintf("setup%d", setupN))
		t0 := time.Now()
		g := dataset.SNB(dataset.SNBConfig{ScaleFactor: writeSF, Seed: cfg.seed})
		t1 := time.Now()
		ov, err := graph.OpenDurable(durableOptions(dir))
		if err != nil {
			return nil, err
		}
		if _, err := ov.Recover(); err != nil {
			return nil, err
		}
		if err := ov.Apply(importBatch(ov, g)); err != nil {
			return nil, fmt.Errorf("import: %w", err)
		}
		if err := ov.Checkpoint(); err != nil {
			return nil, fmt.Errorf("import checkpoint: %w", err)
		}
		t2 := time.Now()
		srv, err := startServer(ov)
		if err != nil {
			return nil, err
		}
		genS = append(genS, t1.Sub(t0).Seconds())
		importS = append(importS, t2.Sub(t1).Seconds())
		return &writeEnv{dir: dir, ov: ov, srv: srv}, nil
	}, func(e *writeEnv) error { return e.close() })
	if err != nil {
		return nil, err
	}
	defer env.srv.stop()
	heap := heapMB()
	facts := factsOf(env.ov)
	nP, nF, nPosts := facts.persons, facts.forums, facts.posts
	cl := newClient(env.srv.url, writeConns)
	gens := func(phase int64) []*reqGen {
		out := make([]*reqGen, writeConns)
		for i := range out {
			out[i] = newReqGen(cfg.seed*7919+phase*101+int64(i), nP, nF)
		}
		return out
	}

	// The writer runs from the start of the warm-up to the end of the last
	// measured phase, on its own schedule.
	fillCache(cl, cfg.seed*7919-1, nP, nF)
	w := newWriter(cfg.seed*writerSeedSalt, nP, nPosts)
	ds0 := env.ov.DurabilityStats()
	start := time.Now()
	total := warmup + cfg.phaseDur()
	if cfg.trace {
		total += cfg.phaseDur()
	}
	writes := make(chan []opSample, 1)
	go func() {
		writes <- openLoop(realClock{}, start, time.Second/writeRate, start.Add(total), func(int) error {
			return env.ov.Apply(w.batch(env.ov))
		})
	}()
	runHTTPPhase(cl, gens(0), warmup, false, env.ov, env.srv)
	measureFrom := time.Now()
	a := runHTTPPhase(cl, gens(1), cfg.phaseDur(), false, env.ov, env.srv)
	measureTo := time.Now()
	phases := []httpPhase{a}
	var b httpPhase
	if cfg.trace {
		b = runHTTPPhase(cl, gens(2), cfg.phaseDur(), true, env.ov, env.srv)
		phases = append(phases, b)
	}
	samples := <-writes
	env.ov.Wait()
	ds1 := env.ov.DurabilityStats()
	countFailures(rep, phases...)
	if err := setE2E(rep, a.ops(), a.wall, setups, heap); err != nil {
		return nil, err
	}

	// Writes: latency from each batch's due time, over the untraced phase.
	var wlat, wsvc, late []float64
	for _, s := range samples {
		rep.attempted++
		if s.err != nil {
			rep.fail("apply batch: %v", s.err)
			continue
		}
		if !s.due.Before(measureFrom) && s.due.Before(measureTo) {
			wlat = append(wlat, ms(s.latency()))
			wsvc = append(wsvc, us(s.done.Sub(s.issued)))
			late = append(late, ms(s.lateness()))
		}
	}
	x := rep.extra
	wt, wq, _ := tail(wlat)
	st, _, _ := tail(wsvc)
	lt, _, _ := tail(late)
	x.set("write_p50_ms", median(wlat), "ms")
	x.set("write_tail_ms", wt, "ms")
	x.set("write_tail_quantile", wq, "q")
	x.set("graph.apply_p50_us", median(wsvc), "us")
	x.set("graph.apply_tail_us", st, "us")
	x.set("loadgen.late_tail_ms", lt, "ms")
	x.set("writes", float64(len(samples)), "count")
	x.set("graph.checkpoints", float64(ds1.Checkpoints-ds0.Checkpoints), "count")

	// Reads re-run on the quiescent final epoch.
	var all []readSample
	for _, p := range phases {
		all = append(all, p.samples...)
	}
	checkReads(rep, cfg.seed, cl, env.ov, all, false)
	serveCensus(rep, facts, env.ov, a)
	cl.close()

	// Durability: checkpoint, a fixed tail of batches, close, and recover
	// the same on-disk state several times.
	t0 := time.Now()
	if err := env.ov.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ckptS := time.Since(t0).Seconds()
	for i := 0; i < tailBatches; i++ {
		rep.attempted++
		if err := env.ov.Apply(w.batch(env.ov)); err != nil {
			rep.fail("apply tail batch: %v", err)
		}
	}
	want := storeFingerprint(env.ov)
	if err := env.srv.stop(); err != nil {
		return nil, err
	}
	if err := env.ov.CloseDurable(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	var recS, openS, replayS []float64
	var replayed uint64
	for i := 0; i < recoveryRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		ov, err := graph.OpenDurable(durableOptions(env.dir))
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		t1 := time.Now()
		rs, err := ov.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		t2 := time.Now()
		recS = append(recS, t2.Sub(t0).Seconds())
		openS = append(openS, t1.Sub(t0).Seconds())
		replayS = append(replayS, t2.Sub(t1).Seconds())
		replayed = rs.ReplayedBatches
		rep.attempted++
		if got := storeFingerprint(ov); got != want {
			rep.fail("recovery %d: store %+v != pre-close %+v", i, got, want)
		}
		if rs.ReplayedBatches != tailBatches {
			rep.fail("recovery %d replayed %d batches, want %d", i, rs.ReplayedBatches, tailBatches)
		}
		if err := ov.CloseDurable(); err != nil {
			return nil, fmt.Errorf("close recovered store: %w", err)
		}
	}
	x.set("recover_s", median(recS), "s")
	x.set("graph.checkpoint_s", ckptS, "s")
	x.set("graph.open_s", median(openS), "s")
	x.set("graph.replay_s", median(replayS), "s")

	if cfg.trace {
		m := newMetrics()
		setHTTPLayers(m, a, b)
		m.set("graph.build_s", median(importS), "s")
		m.set("dataset.generate_s", median(genS), "s")
		m.set("graph.checkpoints", float64(ds1.Checkpoints-ds0.Checkpoints), "count")
		m.set("graph.replayed_batches", float64(replayed), "count")
		appends := ds1.WAL.Appends - ds0.WAL.Appends
		m.set("wal.appends", float64(appends), "count")
		m.set("wal.syncs", float64(ds1.WAL.Syncs-ds0.WAL.Syncs), "count")
		m.set("wal.bytes_per_batch", ratio(float64(ds1.WAL.Bytes-ds0.WAL.Bytes), float64(appends)), "B")
		rep.layers = m
		rep.spans = b.spans
	}
	rep.census["seed"] = cfg.seed
	rep.census["fsync"] = map[string]any{"policy": "interval", "interval_ms": syncEvery.Milliseconds()}
	rep.census["writer"] = map[string]any{
		"rate_per_s":      writeRate,
		"ops_per_batch":   "add Post, hasCreator, 2 likes, SetNodeProp, DeleteEdge",
		"tail_batches":    tailBatches,
		"checkpoints_run": ds1.Checkpoints - ds0.Checkpoints,
	}
	return rep, nil
}
