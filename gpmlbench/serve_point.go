package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/qcache"
)

// serve_point: a closed loop of point reads over HTTP against a CSR
// snapshot of SNB SF 0.3.

const (
	serveSF    = 0.3
	serveConns = 2
	warmup     = time.Second // untimed load before the first measured phase
	checkN     = 64          // reads re-checked against the in-process answer
)

// opRec is one completed operation, for the end-to-end figures.
type opRec struct {
	shape string
	lat   float64 // ms, send (or call) to last row
	first float64 // ms, send to first row; meaningful when rows > 0
	rows  int
}

// setE2E fills the end-to-end metrics from one untraced phase.
func setE2E(rep *report, ops []opRec, wall time.Duration, setup []float64, heap float64) error {
	var lat, first []float64
	perShape := map[string][]float64{}
	for _, o := range ops {
		lat = append(lat, o.lat)
		if o.rows > 0 {
			first = append(first, o.first)
			perShape[o.shape] = append(perShape[o.shape], o.first)
		}
	}
	lt, lq, ok := tail(lat)
	ft, fq, ok2 := tail(first)
	if !ok || !ok2 {
		return fmt.Errorf("only %d operations (%d with rows) completed: too few for a tail percentile", len(lat), len(first))
	}
	sum := 0.0
	for _, k := range sortedKeys(perShape) {
		sum += median(perShape[k])
	}
	m := rep.e2e
	m.set("setup_s", median(setup), "s")
	m.set("heap_mb", heap, "MB")
	m.set("throughput_qps", float64(len(ops))/wall.Seconds(), "1/s")
	m.set("latency_p50_ms", median(lat), "ms")
	m.set("latency_tail_ms", lt, "ms")
	m.set("first_row_p50_ms", median(first), "ms")
	m.set("first_row_tail_ms", ft, "ms")
	m.set("first_row_sum_ms", sum, "ms")
	rep.extra.set("operations", float64(len(lat)), "count")
	rep.extra.set("latency_tail_quantile", lq, "q")
	rep.extra.set("first_row_tail_quantile", fq, "q")
	return nil
}

// fillCache sends ad-hoc statements past the plan cache's capacity, so
// evictions run at their steady rate from the first measured request.
func fillCache(cl *client, seed int64, nP, nF int) {
	fill := newReqGen(seed, nP, nF)
	fill.adhoc = 1
	for i := 0; i < cacheFill; i++ {
		cl.do(fill.next()) // untimed; failures show in the measured phases
	}
}

// cacheFill is how many ad-hoc statements the warm-up sends: past the
// 256-entry plan cache.
const cacheFill = 320

// httpPhase is one measured stretch of the closed loop.
type httpPhase struct {
	samples []readSample
	wall    time.Duration
	cache   qcache.Stats // counter deltas over the phase
	spans   []span
}

func (p httpPhase) ops() []opRec {
	var out []opRec
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, opRec{shape: templates[s.req.tmpl].name, lat: ms(s.rep.total), first: ms(s.rep.firstRow), rows: s.rep.rows})
		}
	}
	return out
}

// runHTTPPhase drives every generator's connection for d, tracing when
// asked.
func runHTTPPhase(cl *client, gens []*reqGen, d time.Duration, traced bool, st graph.Store, srv *served) httpPhase {
	logs := make([]*spanLog, len(gens))
	if traced {
		origin := time.Now()
		for i := range logs {
			logs[i] = newSpanLog(origin)
		}
	}
	c0 := srv.srv.Cache().Stats()
	t0 := time.Now()
	samples := runReaders(cl, gens, t0.Add(d), logs, st)
	wall := time.Since(t0)
	return httpPhase{
		samples: samples,
		wall:    wall,
		cache:   cacheDelta(c0, srv.srv.Cache().Stats()),
		spans:   mergeLogs(logs...),
	}
}

// cacheDelta is the change in a plan cache's counters between snapshots.
func cacheDelta(before, after qcache.Stats) qcache.Stats {
	return qcache.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}

// countFailures charges every failed read to the report.
func countFailures(rep *report, phases ...httpPhase) {
	for _, p := range phases {
		rep.attempted += len(p.samples)
		for _, s := range p.samples {
			if s.err != nil {
				rep.fail("%s %q: %v", templates[s.req.tmpl].name, s.req.param, s.err)
			}
		}
	}
}

// checkReads re-checks a seeded sample of reads against the in-process
// answer on st: the answer the timed phase received (when st has not
// changed since) and a fresh re-run over HTTP.
func checkReads(rep *report, seed int64, cl *client, st graph.Store, samples []readSample, timedToo bool) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range checkSample(rng, samples, checkN) {
		rep.attempted++
		want, err := inprocAnswer(st, s.req)
		if err != nil {
			rep.fail("check %s %q: in-process: %v", templates[s.req.tmpl].name, s.req.param, err)
			continue
		}
		if timedToo && s.rep.fp != want {
			rep.fail("check %s %q: timed answer %+v != in-process %+v", templates[s.req.tmpl].name, s.req.param, s.rep.fp, want)
			continue
		}
		again, err := cl.do(s.req)
		if err != nil {
			rep.fail("check %s %q: re-run: %v", templates[s.req.tmpl].name, s.req.param, err)
		} else if again.fp != want {
			rep.fail("check %s %q: re-run answer %+v != in-process %+v", templates[s.req.tmpl].name, s.req.param, again.fp, want)
		}
	}
}

// setHTTPLayers fills the per-layer metrics of an HTTP workload from its
// traced phase.
func setHTTPLayers(m *metrics, untraced, traced httpPhase) {
	lt := reduceSpans(traced.spans)
	rows, bytes := 0, 0
	for _, s := range traced.samples {
		rows += s.rep.rows
		bytes += s.rep.rowBytes
	}
	m.set("request.self_p50_ms", median(lt.self["request"]), "ms")
	m.set("server.bytes_per_row", ratio(float64(bytes), float64(rows)), "B")
	setFrontLayers(m, lt)
	m.set("qcache.hit_ratio", traced.cache.HitRatio(), "ratio")
	m.set("qcache.evictions", float64(traced.cache.Evictions), "count")
	setEvalLayers(m, lt, rows, len(lt.dur["request"]))
	m.set("trace.overhead_p50_ms", median(latencies(traced))-median(latencies(untraced)), "ms")
}

func latencies(p httpPhase) []float64 {
	var out []float64
	for _, o := range p.ops() {
		out = append(out, o.lat)
	}
	return out
}

// setFrontLayers reports the front-end layers' per-call times.
func setFrontLayers(m *metrics, lt layerTimes) {
	m.set("normalize.querykey_p50_us", 1000*median(lt.dur["normalize.querykey"]), "us")
	m.set("lexer.tokenize_p50_us", 1000*median(lt.dur["lexer.tokenize"]), "us")
	m.set("parser.parse_p50_us", 1000*median(lt.dur["parser.parse"]), "us")
	m.set("normalize.normalize_p50_us", 1000*median(lt.dur["normalize.normalize"]), "us")
	m.set("plan.analyze_p50_us", 1000*median(lt.dur["plan.analyze"]), "us")
}

// setEvalLayers reports the streaming engine's spans.
func setEvalLayers(m *metrics, lt layerTimes, rows, ops int) {
	ft, _, _ := tail(lt.dur["eval.first_row"])
	m.set("eval.open_p50_us", 1000*median(lt.dur["eval.open"]), "us")
	m.set("eval.first_row_p50_ms", median(lt.dur["eval.first_row"]), "ms")
	m.set("eval.first_row_tail_ms", ft, "ms")
	m.set("eval.drain_p50_ms", median(lt.dur["eval.drain"]), "ms")
	m.set("eval.rows_per_request", ratio(float64(rows), float64(ops)), "count")
}

// setNoWrites reports the write-path counters of a read-only workload.
func setNoWrites(m *metrics) {
	for _, n := range []string{"graph.checkpoints", "graph.replayed_batches", "wal.appends", "wal.syncs"} {
		m.set(n, 0, "count")
	}
	m.set("wal.bytes_per_batch", 0, "B")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveCensus records the request mix's measured shares.
func serveCensus(rep *report, f snbFacts, st graph.Store, p httpPhase) {
	personReqs, hubReqs, rows := 0, 0, 0
	for _, s := range p.samples {
		rows += s.rep.rows
		if !templates[s.req.tmpl].forum {
			personReqs++
			if f.hubs[s.req.param] {
				hubReqs++
			}
		}
	}
	paths := map[string]any{}
	for _, t := range templates {
		lines := gpml.MustCompile(t.text).Explain(gpml.WithStore(st))
		paths[t.name] = map[string]any{"path": enginePath(lines), "explain": lines}
	}
	rep.census["nodes"] = f.nodes
	rep.census["edges"] = f.edges
	rep.census["plan_cache"] = map[string]any{
		"capacity":          256,
		"templated_keys":    len(templates),
		"adhoc_key_space":   3*f.persons + f.forums,
		"adhoc_share":       adhocShare,
		"measured_hit_rate": p.cache.HitRatio(),
	}
	rep.census["hub_request_share"] = ratio(float64(hubReqs), float64(personReqs))
	rep.census["rows_per_request"] = ratio(float64(rows), float64(len(p.samples)))
	rep.census["templates"] = paths
	rep.extra.set("census.hub_request_share", ratio(float64(hubReqs), float64(personReqs)), "ratio")
	rep.extra.set("census.plan_cache_hit_ratio", p.cache.HitRatio(), "ratio")
	rep.extra.set("census.rows_per_request", ratio(float64(rows), float64(len(p.samples))), "count")
}

// enginePath names the evaluation path Explain reports for a statement.
// Explain does not name the vectorized batch pipeline, so a single
// flat-chain pattern reads as plain "dfs".
func enginePath(lines []string) string {
	all := strings.Join(lines, "\n")
	switch {
	case strings.Contains(all, "join core: intersect"):
		return "wco-intersect"
	case strings.Contains(all, "bind-join seed="):
		return "bind-join"
	case strings.Contains(all, "engine=automaton"):
		return "automaton"
	case strings.Contains(all, "engine=bfs"):
		return "bfs"
	default:
		return "dfs"
	}
}

// serveEnv is one built serving stack.
type serveEnv struct {
	st  graph.Store
	srv *served
}

func runServePoint(cfg config) (*report, error) {
	if err := checkLayouts(); err != nil {
		return nil, err
	}
	rep := newReport()
	var genS, buildS []float64
	env, setups, err := repeatSetup(setupRuns, func() (*serveEnv, error) {
		t0 := time.Now()
		g := dataset.SNB(dataset.SNBConfig{ScaleFactor: serveSF, Seed: cfg.seed})
		t1 := time.Now()
		st := gpml.Snapshot(g)
		t2 := time.Now()
		srv, err := startServer(st)
		if err != nil {
			return nil, err
		}
		genS = append(genS, t1.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
		return &serveEnv{st: st, srv: srv}, nil
	}, func(e *serveEnv) error { return e.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer env.srv.stop()
	heap := heapMB()
	facts := factsOf(env.st)
	nP, nF := facts.persons, facts.forums
	cl := newClient(env.srv.url, serveConns)
	gens := func(phase int64) []*reqGen {
		out := make([]*reqGen, serveConns)
		for i := range out {
			out[i] = newReqGen(cfg.seed*7919+phase*101+int64(i), nP, nF)
		}
		return out
	}
	fillCache(cl, cfg.seed*7919-1, nP, nF)
	runHTTPPhase(cl, gens(0), warmup, false, env.st, env.srv)
	a := runHTTPPhase(cl, gens(1), cfg.phaseDur(), false, env.st, env.srv)
	phases := []httpPhase{a}
	if cfg.trace {
		b := runHTTPPhase(cl, gens(2), cfg.phaseDur(), true, env.st, env.srv)
		phases = append(phases, b)
		rep.layers = newMetrics()
		setHTTPLayers(rep.layers, a, b)
		rep.layers.set("graph.build_s", median(buildS), "s")
		rep.layers.set("dataset.generate_s", median(genS), "s")
		setNoWrites(rep.layers)
		rep.spans = b.spans
	}
	countFailures(rep, phases...)
	if err := setE2E(rep, a.ops(), a.wall, setups, heap); err != nil {
		return nil, err
	}
	var all []readSample
	for _, p := range phases {
		all = append(all, p.samples...)
	}
	checkReads(rep, cfg.seed, cl, env.st, all, true)
	serveCensus(rep, facts, env.st, a)
	rep.census["seed"] = cfg.seed
	cl.close()
	if err := env.srv.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}
