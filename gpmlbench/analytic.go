package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/qcache"
)

// analytic and analytic_par: one in-process caller cycles heavy shapes on
// a CSR snapshot of SNB SF 0.1 through Query.Stream, draining each.

const analyticSF = 0.1

// analyticStructureSeed fixes the generator seed of the analytic graph,
// as an LDBC-style benchmark fixes its dataset per scale factor. The heavy
// shapes' work depends on the degrees of a few hubs, and which seed a scan
// meets first sets each shape's time to first row; both vary by tens of
// percent between generator seeds and would swamp any comparison across
// seeds. The run's seed renames the graph instead (see analyticGraph).
const analyticStructureSeed = 1

// analyticGraph generates the analytic graph for a seed: the SNB SF 0.1
// graph of analyticStructureSeed, in its generated order, with every node
// and edge id replaced through a seed-drawn permutation. A seed changes
// every id, and with them the interner's hashing and every answer's
// spelling; the structure and the scan order stay fixed.
func analyticGraph(seed int64) (*graph.Graph, error) {
	base := dataset.SNB(dataset.SNBConfig{ScaleFactor: analyticSF, Seed: analyticStructureSeed})
	rng := rand.New(rand.NewSource(seed))
	nodePerm := rng.Perm(base.NumNodes())
	edgePerm := rng.Perm(base.NumEdges())
	rename := make(map[graph.NodeID]graph.NodeID, len(nodePerm))
	g := graph.New()
	var err error
	i := 0
	base.Nodes(func(n *graph.Node) bool {
		rename[n.ID] = graph.NodeID(fmt.Sprintf("v%d", nodePerm[i]))
		i++
		err = g.AddNode(rename[n.ID], n.Labels, n.Props)
		return err == nil
	})
	i = 0
	base.Edges(func(e *graph.Edge) bool {
		id := graph.EdgeID(fmt.Sprintf("e%d", edgePerm[i]))
		i++
		if e.Direction == graph.Directed {
			err = g.AddEdge(id, rename[e.Source], rename[e.Target], e.Labels, e.Props)
		} else {
			err = g.AddUndirectedEdge(id, rename[e.Source], rename[e.Target], e.Labels, e.Props)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// shape is one heavy statement and the evaluation path it exists to
// exercise.
type shape struct {
	name, text string
	want       string // the enginePath Explain must report
	ref        string // the reference's spelling, when it differs
}

var shapes = []shape{
	// Quantified row pipeline: DFS expansion with reduce/dedup.
	{"khop", `MATCH (a:Person WHERE a.country = 'country0')-[:knows]-{1,2}(b:Person)`, "dfs", ""},
	// Bind-join of a seeded quantified pattern onto a scanned one.
	{"bindjoin", `MATCH (f:Forum)-[:hasModerator]->(p:Person WHERE p.country = 'country1'), (p)-[:knows]-{1,2}(q:Person)`, "bind-join", ""},
	// Flat chain: the vectorized batch pipeline's fragment.
	{"chain", `MATCH (a:Person)-[:knows]-(b:Person)-[:likes]->(m:Post)`, "dfs", ""},
	// Cyclic core on the worst-case-optimal intersection, anchored by the
	// statement WHERE (the unanchored triangle takes seconds).
	{"triangle", `MATCH (a:Person)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a) WHERE a.country = 'country1'`, "wco-intersect",
		// Anchored in the pattern, the planner bind-joins instead.
		`MATCH (a:Person WHERE a.country = 'country1')-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`},
	// Bounded ANY SHORTEST on the product automaton.
	{"shortest", `MATCH ANY SHORTEST p = (a:Person WHERE a.country = 'country3')-[:knows]-{1,3}(b:Person WHERE b.country = 'country4')`, "automaton", ""},
}

// pinned holds each seed's expected shape answers, keyed by seed then
// shape name. Runs on a pinned seed must match them exactly.
//
//go:embed answers.json
var pinnedJSON []byte

func pinnedAnswers(seed int64) (map[string]fingerprint, error) {
	var all map[string]map[string]fingerprint
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

// pinSeed computes one seed's shape answers on the timed path (CSR,
// serial), verifies them against the reference, and merges them into the
// answers file at path.
func pinSeed(path string, seed int64) error {
	g, err := analyticGraph(seed)
	if err != nil {
		return err
	}
	st := gpml.Snapshot(g)
	ref, err := referenceAnswers(seed)
	if err != nil {
		return err
	}
	got := map[string]fingerprint{}
	for _, sh := range shapes {
		d, err := streamDrain(context.Background(), nil, -1, 0, gpml.MustCompile(sh.text), st, true)
		if err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		if d.fp != ref[sh.name] {
			return fmt.Errorf("seed %d %s: answer %+v != reference %+v", seed, sh.name, d.fp, ref[sh.name])
		}
		got[sh.name] = d.fp
	}
	return mergeJSON(path, strconv.FormatInt(seed, 10), got)
}

// analyticOp runs one shape through the caller's plan cache and drains it.
func analyticOp(ctx context.Context, log *spanLog, id int64, cache *qcache.Cache, st graph.Store, sh shape, par int, fp bool) (opRec, drained, error) {
	t0 := time.Now()
	var root int
	if log != nil {
		root = log.record("request", t0, t0, -1, id) // end patched below
	}
	q, err := prepare(log, root, id, cache, sh.text)
	if err != nil {
		return opRec{}, drained{}, err
	}
	tq := time.Now()
	d, err := streamDrain(ctx, log, root, id, q, st, fp, gpml.WithParallelism(par))
	if err != nil {
		return opRec{}, d, err
	}
	end := time.Now()
	if log != nil {
		log.spans[root].End = int64(end.Sub(log.origin))
		if err := compileProbe(log, sh.text, id); err != nil {
			return opRec{}, d, err
		}
	}
	pre := tq.Sub(t0)
	return opRec{shape: sh.name, lat: ms(end.Sub(t0)), first: ms(pre + d.firstRow), rows: d.rows}, d, nil
}

// minCycles is the fewest whole cycles a phase runs, so a slow machine
// still leaves more than minBeyond samples for the tail percentile.
const minCycles = 3

// analyticPhase cycles the shapes until d has passed and at least
// minCycles cycles have run, finishing the cycle in progress so every
// shape is sampled equally often.
func analyticPhase(rep *report, log *spanLog, cache *qcache.Cache, st graph.Store, par int, d time.Duration, want map[string]int) ([]opRec, time.Duration, qcache.Stats) {
	c0 := cache.Stats()
	t0 := time.Now()
	until := t0.Add(d)
	var ops []opRec
	var id int64
	for cycle := 0; cycle < minCycles || time.Now().Before(until); cycle++ {
		for _, sh := range shapes {
			id++
			rep.attempted++
			o, _, err := analyticOp(context.Background(), log, id, cache, st, sh, par, false)
			switch {
			case err != nil:
				rep.fail("%s: %v", sh.name, err)
			case o.rows != want[sh.name]:
				rep.fail("%s: %d rows, first run had %d", sh.name, o.rows, want[sh.name])
			default:
				ops = append(ops, o)
			}
		}
	}
	wall := time.Since(t0)
	return ops, wall, cacheDelta(c0, cache.Stats())
}

func runAnalytic(cfg config, par int) (*report, error) {
	rep := newReport()
	var genS, buildS []float64
	st, setups, err := repeatSetup(setupRuns, func() (graph.Store, error) {
		t0 := time.Now()
		g, err := analyticGraph(cfg.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		st := gpml.Snapshot(g)
		genS = append(genS, t1.Sub(t0).Seconds())
		buildS = append(buildS, time.Since(t1).Seconds())
		return st, nil
	}, func(graph.Store) error { return nil })
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	rep.extra.set("parallelism", float64(par), "count")

	// The first, untimed cycle fills the caller's plan cache, confirms each
	// shape's evaluation path, and fingerprints every answer.
	cache := qcache.New(256)
	answers := map[string]fingerprint{}
	rowsWant := map[string]int{}
	paths := map[string]any{}
	for _, sh := range shapes {
		lines := gpml.MustCompile(sh.text).Explain(gpml.WithStore(st), gpml.WithParallelism(par))
		got := enginePath(lines)
		if got != sh.want {
			rep.notes = append(rep.notes, fmt.Sprintf("%s routes to %s, expected %s", sh.name, got, sh.want))
		}
		_, d, err := analyticOp(context.Background(), nil, 0, cache, st, sh, par, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		answers[sh.name] = d.fp
		rowsWant[sh.name] = d.rows
		paths[sh.name] = map[string]any{"path": got, "explain": lines, "rows": d.rows}
	}

	ops, wall, cstats := analyticPhase(rep, nil, cache, st, par, cfg.phaseDur(), rowsWant)
	if err := setE2E(rep, ops, wall, setups, heap); err != nil {
		return nil, err
	}
	setShapeExtras(rep.extra, "shape", ops)

	if cfg.trace {
		log := newSpanLog(time.Now())
		tops, _, tstats := analyticPhase(rep, log, cache, st, par, cfg.phaseDur(), rowsWant)
		lt := reduceSpans(log.spans)
		rows := 0
		for _, o := range tops {
			rows += o.rows
		}
		m := newMetrics()
		m.set("request.self_p50_ms", median(lt.self["request"]), "ms")
		m.set("server.bytes_per_row", 0, "B") // no server on this path
		setFrontLayers(m, lt)
		m.set("qcache.hit_ratio", tstats.HitRatio(), "ratio")
		m.set("qcache.evictions", float64(tstats.Evictions), "count")
		setEvalLayers(m, lt, rows, len(lt.dur["request"]))
		m.set("graph.build_s", median(buildS), "s")
		m.set("dataset.generate_s", median(genS), "s")
		setNoWrites(m)
		m.set("trace.overhead_p50_ms", shapeOverhead(ops, tops), "ms")
		rep.layers = m
		rep.spans = log.spans
		setShapeExtras(rep.extra, "eval", tops)
	}

	// Answer checks. On a pinned seed the answers must equal the pinned
	// ones, which were verified against the reference when pinned; on any
	// other seed they must equal the reference evaluation.
	pin, err := pinnedAnswers(cfg.seed)
	if err != nil {
		return nil, err
	}
	want := pin
	if want == nil {
		if want, err = referenceAnswers(cfg.seed); err != nil {
			return nil, err
		}
	}
	for _, sh := range shapes {
		rep.attempted++
		if want[sh.name] != answers[sh.name] {
			rep.fail("%s: answer %+v != expected %+v (pinned seed: %v)", sh.name, answers[sh.name], want[sh.name], pin != nil)
		}
	}
	if pin == nil {
		rep.notes = append(rep.notes, fmt.Sprintf("seed %d is not pinned: answers checked against the reference evaluation", cfg.seed))
	}

	rep.census["seed"] = cfg.seed
	rep.census["nodes"] = st.NumNodes()
	rep.census["edges"] = st.NumEdges()
	rep.census["parallelism"] = par
	rep.census["shapes"] = paths
	rep.census["plan_cache"] = map[string]any{"capacity": 256, "working_set": len(shapes), "measured_hit_rate": cstats.HitRatio()}
	return rep, nil
}

// setShapeExtras reports each shape's median first row, completion time
// and row count.
func setShapeExtras(m *metrics, prefix string, ops []opRec) {
	first, drain, rows := map[string][]float64{}, map[string][]float64{}, map[string]int{}
	for _, o := range ops {
		first[o.shape] = append(first[o.shape], o.first)
		drain[o.shape] = append(drain[o.shape], o.lat-o.first)
		rows[o.shape] = o.rows
	}
	for _, sh := range shapes {
		m.set(prefix+".first_row_ms."+sh.name, median(first[sh.name]), "ms")
		m.set(prefix+".drain_ms."+sh.name, median(drain[sh.name]), "ms")
		m.set(prefix+".rows."+sh.name, float64(rows[sh.name]), "count")
	}
}

// shapeOverhead is the tracing overhead per operation: the mean over
// shapes of the traced phase's median latency minus the untraced
// phase's, so phases that ran different numbers of cycles compare like
// with like.
func shapeOverhead(untraced, traced []opRec) float64 {
	by := func(ops []opRec) map[string][]float64 {
		m := map[string][]float64{}
		for _, o := range ops {
			m[o.shape] = append(m[o.shape], o.lat)
		}
		return m
	}
	u, t := by(untraced), by(traced)
	sum := 0.0
	for _, sh := range shapes {
		sum += median(t[sh.name]) - median(u[sh.name])
	}
	return sum / float64(len(shapes))
}

// referenceAnswers evaluates every shape on a reference path that shares
// as little as possible with the timed one: the generator's map-backed
// graph instead of the CSR snapshot, the row pipeline instead of the batch
// pipeline, the enumerating engines instead of the automaton, and the
// triangle anchored in its pattern so it bind-joins instead of
// intersecting.
func referenceAnswers(seed int64) (map[string]fingerprint, error) {
	g, err := analyticGraph(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]fingerprint{}
	for _, sh := range shapes {
		src := sh.text
		if sh.ref != "" {
			src = sh.ref
		}
		q, err := gpml.Compile(src)
		if err != nil {
			return nil, err
		}
		d, err := streamDrain(context.Background(), nil, -1, 0, q, g, true,
			gpml.NoVectorize(), gpml.NoAutomaton(), gpml.WithParallelism(runtime.NumCPU()))
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", sh.name, err)
		}
		out[sh.name] = d.fp
	}
	return out, nil
}
