package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// streamPattern drains the streaming single-pattern pipeline and restores
// the canonical order, i.e. exactly what MatchPattern materializes.
func streamPattern(t *testing.T, s graph.Store, pp *plan.PathPlan, cfg Config) []*binding.Reduced {
	t.Helper()
	sols, err := collectStream(newPatternSource(context.Background(), s, pp, cfg))
	if err != nil {
		t.Fatalf("pattern stream: %v", err)
	}
	binding.SortStable(sols)
	return sols
}

// TestStreamingPatternDifferential pits the pull-based pattern stream
// (per-seed dedup/selector, incremental emission) against the
// materializing MatchPattern pipeline over the engine-differential query
// battery, on both backends, sequential and parallel: the §6 pipeline
// must be invisible to streaming. This is the streaming-on/off axis of
// the differential suites.
func TestStreamingPatternDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 14, AvgDegree: 2, Phones: 4, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 3, Cities: 5, Phones: 8, BlockedFraction: 0.15, Seed: 7, UndirectedPhones: true}),
		dataset.Grid(5, 5),
		dataset.Cycle(9),
		dataset.LaunderingRings(3, 4, 2, 99),
	}
	queries := append([]string{
		// Selector-free patterns exercise the per-solution fast path.
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		`MATCH TRAIL (x:Account)-[t:Transfer]->{1,3}(y:Account)`,
		`MATCH (x) [-[e:Transfer]->(m:Account)]{0,2} (y)`,
	}, diffQueries...)
	for gi, g := range graphs {
		snap := graph.Snapshot(g)
		for _, src := range queries {
			p := compile(t, src, plan.Options{})
			configs := []Config{{}, {Parallelism: 4}}
			if engine, _ := EngineFor(p.Paths[0], Config{}); engine == EngineAutomaton {
				// Only meaningful when it actually switches the engine.
				configs = append(configs, Config{DisableAutomaton: true})
			}
			for si, s := range []graph.Store{g, snap} {
				for _, cfg := range configs {
					want, err := MatchPattern(s, p.Paths[0], Config{DisableAutomaton: cfg.DisableAutomaton})
					if err != nil {
						t.Fatalf("MatchPattern: %v", err)
					}
					got := streamPattern(t, s, p.Paths[0], cfg)
					if binding.FormatTable(got) != binding.FormatTable(want) {
						t.Errorf("graph %d store %d cfg %+v %s: streaming diverges\nstream:\n%s\nmaterialized:\n%s",
							gi, si, cfg, src, binding.FormatTable(got), binding.FormatTable(want))
					}
				}
			}
		}
	}
}

// TestStreamLimitPrefix pins the LIMIT pushdown contract: Config.Limit k
// returns exactly min(k, total) rows, and the limited result is a subset
// of the full result with per-row content intact (bind-join and classic
// pipelines, both backends).
func TestStreamLimitPrefix(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 2, Cities: 4, Phones: 6, BlockedFraction: 0.2, Seed: 5, UndirectedPhones: true})
	snap := graph.Snapshot(g)
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City)`,
		`MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->+(b WHERE b.isBlocked='yes')`,
	}
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for si, s := range []graph.Store{g, snap} {
			for _, base := range []Config{{}, {DisableBindJoin: true}} {
				full, err := EvalPlan(s, p, base)
				if err != nil {
					t.Fatal(err)
				}
				inFull := map[string]bool{}
				for _, line := range renderResult(full) {
					inFull[line] = true
				}
				for _, k := range []int{0, 1, 3, len(full.Rows), len(full.Rows) + 10} {
					cfg := base
					cfg.Limit = k
					lim, err := EvalPlan(s, p, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := k
					if k == 0 || k > len(full.Rows) {
						want = len(full.Rows)
					}
					if len(lim.Rows) != want {
						t.Errorf("store %d %s limit %d: got %d rows, want %d", si, src, k, len(lim.Rows), want)
					}
					for _, line := range renderResult(lim) {
						if !inFull[line] {
							t.Errorf("store %d %s limit %d: row not in full result: %s", si, src, k, line)
						}
					}
				}
			}
		}
	}
}

// TestStreamBindJoinParallelChunking covers the bind-join step's chunked
// parallel prefetch: with Parallelism > 1 the step pulls a chunk of input
// rows and solves their unseen seeds on a worker pool; results must be
// byte-identical to sequential streaming and to the classic pipeline.
func TestStreamBindJoinParallelChunking(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 120, AvgDegree: 3, Cities: 8, Phones: 12, BlockedFraction: 0.2, Seed: 17, UndirectedPhones: true})
	snap := graph.Snapshot(g)
	queries := []string{
		// Planner output: pattern 0 scan, then bind-join seeded through x
		// (the shape TestExplainJoinPlan pins) — which is the chunked
		// prefetch path under parallelism.
		`MATCH (x:Account WHERE x.isBlocked='yes')-[:isLocatedIn]->(c:City), (x)-[t:Transfer]->(y:Account)`,
		`MATCH (x:Account)-[:isLocatedIn]->(c:City), (x)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`,
	}
	for qi, src := range queries {
		p := compile(t, src, plan.Options{})
		if qi == 0 {
			steps := plan.OrderJoin(p, make([]graph.StoreStats, len(p.Paths)))
			seeded := false
			for _, st := range steps {
				if st.SeedVar != "" {
					seeded = true
				}
			}
			if !seeded {
				t.Fatalf("test premise broken: no seeded bind-join step in %v", steps)
			}
		}
		for si, s := range []graph.Store{g, snap} {
			want, err := EvalPlan(s, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalPlan(s, p, Config{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			diffStrings(t, fmt.Sprintf("store %d %s [parallel vs sequential]", si, src),
				renderResult(got), renderResult(want))
			// And the parallel chunk path under a limit: a strict prefix
			// of the work, same per-row content.
			lim, err := EvalPlan(s, p, Config{Parallelism: 4, Limit: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) >= 3 && len(lim.Rows) != 3 {
				t.Errorf("store %d %s: limited parallel run returned %d rows", si, src, len(lim.Rows))
			}
		}
	}
}

// TestStreamParallelManySeeds pins the chunk-planning arithmetic at a
// seed count large enough that the geometric chunk-size exponent passes
// its cap many times over (a naive uncapped shift overflows into a
// negative size around 3700×workers seeds and hangs the planner
// forever). The run must terminate and return every row.
func TestStreamParallelManySeeds(t *testing.T) {
	g := graph.New()
	const n = 9000
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(fmt.Sprintf("a%d", i)), []string{"Account"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := compile(t, `MATCH (x:Account)`, plan.Options{})
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = EvalPlan(g, p, Config{Parallelism: 2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("parallel evaluation with many seeds did not terminate")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("got %d rows, want %d", len(res.Rows), n)
	}
}

// TestStreamCursorEarlyClose exercises abandoning a cursor mid-stream:
// Close must stop the pipeline's goroutines and return without deadlock,
// whatever mix of patterns, selectors and parallelism is in flight.
func TestStreamCursorEarlyClose(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 60, AvgDegree: 3, Cities: 6, Phones: 10, BlockedFraction: 0.2, Seed: 13, UndirectedPhones: true})
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City)`,
		`MATCH ALL SHORTEST p = (a:Account)-[:Transfer]->+(b:Account)`,
	}
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for _, cfg := range []Config{{}, {Parallelism: 4}} {
			for _, take := range []int{0, 1, 5} {
				cur, err := StreamPlan(context.Background(), g, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < take; i++ {
					if _, err := cur.Next(); err != nil {
						t.Fatal(err)
					}
				}
				done := make(chan struct{})
				go func() {
					cur.Close()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s (parallelism %d, take %d): Close did not return", src, cfg.Parallelism, take)
				}
			}
		}
	}
}

// TestStreamContextCancelMidSearch verifies the engine-level cancellation
// hook: a context cancelled while a large search is in flight surfaces
// the context error promptly — well before the enumeration could finish.
func TestStreamContextCancelMidSearch(t *testing.T) {
	// A dense grid TRAIL enumeration runs effectively forever without
	// cancellation; the poll interval must cut it off in well under a
	// second.
	g := dataset.Grid(7, 7)
	p := compile(t, `MATCH TRAIL (x)-[e:Transfer]->+(y)`, plan.Options{})
	for _, cfg := range []Config{{}, {Parallelism: 4}} {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := StreamPlan(ctx, g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatalf("first row: %v", err)
		}
		cancel()
		deadline := time.Now().Add(5 * time.Second)
		var lastErr error
		for time.Now().Before(deadline) {
			_, lastErr = cur.Next()
			if lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, context.Canceled) {
			t.Fatalf("parallelism %d: expected context.Canceled, got %v", cfg.Parallelism, lastErr)
		}
		cur.Close()
	}
}

// TestStreamStagesAnnotation pins the Explain surface: every pattern line
// reports its pipeline stages, selectors are the per-seed blocking stage,
// and the sort is flagged blocking.
func TestStreamStagesAnnotation(t *testing.T) {
	p := compile(t, `MATCH ANY SHORTEST (a:Account)-[:Transfer]->+(b)`, plan.Options{})
	lines := Explain(p, Config{})
	if len(lines) != 1 {
		t.Fatalf("want one line, got %v", lines)
	}
	for _, want := range []string{"stages=", "enumerate", "dedup", "select ANY SHORTEST[blocking]", "sort[blocking]"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("explain line missing %q: %s", want, lines[0])
		}
	}
	stages := p.Paths[0].Stages()
	blocking := 0
	for _, st := range stages {
		if st.Blocking {
			blocking++
		}
	}
	if blocking != 2 {
		t.Errorf("want 2 blocking stages (select, sort), got %d in %+v", blocking, stages)
	}
	// Selector-free patterns stream everything but the Eval-only sort.
	p2 := compile(t, `MATCH (a:Account)-[t:Transfer]->(b)`, plan.Options{})
	for _, st := range p2.Paths[0].Stages() {
		if st.Blocking && st.Name != "sort" {
			t.Errorf("selector-free pattern has unexpected blocking stage %+v", st)
		}
	}
}

// TestStreamErrorPropagation: a search-limit error inside a generator
// goroutine must surface through Next, not vanish — on every scatter
// caller: the row scatter on one queue (map graph) and on per-partition
// queues (partitioned store), and the batch scatter (flat chain).
func TestStreamErrorPropagation(t *testing.T) {
	g := dataset.Grid(5, 5)
	parts := graph.PartitionSnapshot(g, graph.PartitionOptions{Partitions: 3})
	trail := `MATCH TRAIL (x)-[e:Transfer]->+(y)`
	chain := `MATCH (x)-[e:Transfer]->(y)-[f:Transfer]->(z)`
	for _, tc := range []struct {
		s   graph.Store
		src string
		cfg Config
	}{
		{g, trail, Config{Limits: Limits{MaxMatches: 50}}},
		{g, trail, Config{Limits: Limits{MaxMatches: 50}, Parallelism: 4}},
		{g, chain, Config{Limits: Limits{MaxMatches: 10}, Parallelism: 4}},
		{parts, trail, Config{Limits: Limits{MaxMatches: 50}, Parallelism: 4}},
	} {
		cfg := tc.cfg
		p := compile(t, tc.src, plan.Options{})
		cur, err := StreamPlan(context.Background(), tc.s, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lastErr error
		for {
			row, err := cur.Next()
			if err != nil {
				lastErr = err
				break
			}
			if row == nil {
				break
			}
		}
		cur.Close()
		var lim *LimitError
		if !errors.As(lastErr, &lim) {
			t.Fatalf("%T parallelism %d %s: expected LimitError, got %v", tc.s, cfg.Parallelism, tc.src, lastErr)
		}
	}
}

// TestStreamFirstRowBeforeFullEnumeration is the latency contract: on a
// workload whose full enumeration takes noticeable time, the first row
// must arrive in a small fraction of it.
func TestStreamFirstRowBeforeFullEnumeration(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 2500, AvgDegree: 4, Cities: 10, BlockedFraction: 0.1, Seed: 3})
	p := compile(t, `MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`, plan.Options{})

	t0 := time.Now()
	full, err := EvalPlan(g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullD := time.Since(t0)

	t0 = time.Now()
	cur, err := StreamPlan(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := cur.Next()
	firstD := time.Since(t0)
	cur.Close()
	if err != nil || row == nil {
		t.Fatalf("first row: %v %v", row, err)
	}
	if len(full.Rows) < 10_000 {
		t.Skipf("workload too small to time (%d rows)", len(full.Rows))
	}
	// Generous bound: the point is asymptotic (per-row vs total), and CI
	// machines are noisy. Locally this is ~1000×.
	if firstD > fullD/5 {
		t.Errorf("first row took %v, full enumeration %v; streaming should be far faster", firstD, fullD)
	}
}
