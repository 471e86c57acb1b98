package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Differential battery for the vectorized batch pipeline: batching must
// be invisible in results. Flat-chain statements (the batch fragment)
// run over randomized graphs on both store backends, asserting exact
// stream-order parity between vectorize on and off — including LIMIT
// prefixes, where the batch pipeline speculates up to one batch ahead
// but must deliver the identical row prefix. The cyclic statements
// additionally pit the worst-case-optimal intersection operator against
// bind-joins on the collected (canonically ordered) result.

// batchQueries are flat-chain statements inside the batch pipeline's
// fragment: single and multi-pattern, directed/undirected/any
// orientation, repeated variables (self-loops), statement-level WHERE
// (the vectorized postfilter), and the cyclic shapes the intersection
// operator dispatches on.
var batchQueries = []string{
	`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
	`MATCH (x:Account)-[t:Transfer]->(y)-[u:Transfer]->(z)`,
	`MATCH (x)-[t:Transfer]->(x)`,
	`MATCH (x:Account)~[h:hasPhone]~(p:Phone)`,
	`MATCH (x:Account)-[t:Transfer]-(y)`,
	`MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE t.amount > 2M`,
	`MATCH (a)-[e1:Transfer]->(b), (b)-[e2:Transfer]->(c)`,
	`MATCH (a)-[:Transfer]->(b), (b)-[:Transfer]->(c), (c)-[:Transfer]->(a)`,
	`MATCH (a)-[:Transfer]->(b), (b)-[:Transfer]->(c), (c)-[:Transfer]->(d), (d)-[:Transfer]->(a)`,
	`MATCH (a)-[:Transfer]->(b), (a)-[:Transfer]->(c), (b)-[:Transfer]->(d), (c)-[:Transfer]->(d)`,
	`MATCH (x)-[:Transfer]->(y), (y)-[:Transfer]->(z), (z)-[:Transfer]->(x), (z)~[:hasPhone]~(p:Phone)`,
	`MATCH (a:Account)-[:Transfer]->(b), (b)-[:Transfer]->(c), (c)-[:Transfer]->(a) WHERE a.isBlocked='no'`,
}

// streamRows drains the streaming pipeline and pins each row's content
// and position by its bindings' canonical keys.
func streamRows(t *testing.T, s graph.Store, p *plan.Plan, cfg Config) []string {
	t.Helper()
	cur, err := StreamPlan(context.Background(), s, p, cfg)
	if err != nil {
		t.Fatalf("StreamPlan: %v", err)
	}
	defer cur.Close()
	var out []string
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if row == nil {
			return out
		}
		var b strings.Builder
		for _, rb := range row.Bindings {
			b.WriteString(rb.CanonKey())
			b.WriteByte('#')
		}
		out = append(out, b.String())
	}
}

func batchDiffGraphs() []*graph.Graph {
	return []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 20, AvgDegree: 2, Cities: 3, Phones: 5, BlockedFraction: 0.2, Seed: 5, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 32, AvgDegree: 3, Phones: 6, BlockedFraction: 0.15, Seed: 13, UndirectedPhones: true}),
		dataset.LaunderingRings(3, 4, 3, 55),
		dataset.Cycle(9),
	}
}

// TestBatchDifferential asserts exact stream-order parity between the
// batch pipeline and the row-at-a-time pipeline, on both backends,
// sequential and parallel, with and without edge-isomorphism — and that
// the battery genuinely exercises the batch pipeline rather than
// falling through its gates.
func TestBatchDifferential(t *testing.T) {
	engaged := 0
	for gi, g := range batchDiffGraphs() {
		snap := graph.Snapshot(g)
		for _, src := range batchQueries {
			p := compile(t, src, plan.Options{})
			stores := make([]graph.Store, len(p.Paths))
			for i := range stores {
				stores[i] = snap
			}
			if cur, ok := newBatchPipeline(context.Background(), stores, p, Config{}, true); ok {
				cur.Close()
				engaged++
			}
			for si, s := range []graph.Store{g, snap} {
				for _, cfg := range []Config{{}, {Parallelism: 4}, {EdgeIsomorphic: true}} {
					// Exact stream-order parity holds for the batch
					// bind-join path; the intersection operator reorders
					// the raw stream by design (TestIntersectDifferential
					// pins its canonical-order parity), so it is held out
					// of this comparison.
					on := cfg
					on.DisableIntersect = true
					off := cfg
					off.DisableVectorize = true
					label := fmt.Sprintf("graph %d store %d par=%d iso=%v %s", gi, si, cfg.Parallelism, cfg.EdgeIsomorphic, src)
					diffStrings(t, label, streamRows(t, s, p, on), streamRows(t, s, p, off))
				}
			}
		}
	}
	if want := 3 * len(batchQueries); engaged < want {
		t.Errorf("batch pipeline engaged for %d statement evaluations, want >= %d", engaged, want)
	}
}

// TestParallelStreamOrder pins the raw (uncollected) order of the
// parallel scatter: at every parallelism, on map, CSR and partitioned
// stores, for both the row and the batch pipeline, the stream must equal
// the serial stream row for row. Collect's canonical sort would hide a
// gather that emits in arrival order; this comparison does not.
func TestParallelStreamOrder(t *testing.T) {
	queries := append([]string{
		`MATCH TRAIL (x:Account)-[t:Transfer]->{1,3}(y)`,
		`MATCH ANY SHORTEST (a:Account)-[:Transfer]->+(b)`,
		`MATCH (a:Account)-[:Transfer]->(b), TRAIL (b)-[:Transfer]->{1,2}(c)`,
	}, batchQueries...)
	for gi, g := range batchDiffGraphs() {
		stores := []graph.Store{g, graph.Snapshot(g), graph.PartitionSnapshot(g, graph.PartitionOptions{Partitions: 3})}
		for _, src := range queries {
			p := compile(t, src, plan.Options{})
			for si, s := range stores {
				for _, vec := range []bool{false, true} {
					serial := Config{DisableIntersect: true, DisableVectorize: !vec}
					want := streamRows(t, s, p, serial)
					for _, par := range []int{2, 8} {
						cfg := serial
						cfg.Parallelism = par
						label := fmt.Sprintf("graph %d store %d vectorize=%v par=%d %s", gi, si, vec, par, src)
						diffStrings(t, label, streamRows(t, s, p, cfg), want)
					}
				}
			}
		}
	}
}

// TestBatchLimitPrefixDifferential pins the LIMIT pushdown: for every
// prefix length the batch pipeline must deliver exactly the rows the
// row-at-a-time pipeline delivers, in the same order, even though it
// fills batches speculatively past the cut.
func TestBatchLimitPrefixDifferential(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 28, AvgDegree: 3, Phones: 5, BlockedFraction: 0.2, Seed: 21, UndirectedPhones: true})
	snap := graph.Snapshot(g)
	for _, src := range batchQueries {
		p := compile(t, src, plan.Options{})
		for si, s := range []graph.Store{g, snap} {
			full := streamRows(t, s, p, Config{DisableVectorize: true})
			for _, n := range []int{1, 2, 5, 17} {
				got := streamRows(t, s, p, Config{Limit: n})
				want := full
				if len(want) > n {
					want = want[:n]
				}
				diffStrings(t, fmt.Sprintf("store %d limit %d %s", si, n, src), got, want)
			}
		}
	}
}

// TestIntersectDifferential pits the intersection operator against
// bind-joins on the cyclic statements: collected results must be
// identical (the operator changes raw stream order, which canonical
// ordering absorbs), and the dispatcher must actually choose it.
func TestIntersectDifferential(t *testing.T) {
	dispatched := 0
	for gi, g := range batchDiffGraphs() {
		snap := graph.Snapshot(g)
		for _, src := range batchQueries {
			p := compile(t, src, plan.Options{})
			if len(p.Paths) < 3 {
				continue
			}
			stats := make([]graph.StoreStats, len(p.Paths))
			for i := range stats {
				stats[i] = snap.LabelStats()
			}
			if dispatchCore(p, stats, snap, Config{}) != nil {
				dispatched++
			}
			on, err := EvalPlan(snap, p, Config{})
			if err != nil {
				t.Fatalf("graph %d %s: intersect on: %v", gi, src, err)
			}
			off, err := EvalPlan(snap, p, Config{DisableIntersect: true})
			if err != nil {
				t.Fatalf("graph %d %s: intersect off: %v", gi, src, err)
			}
			diffStrings(t, fmt.Sprintf("graph %d %s [intersect on vs off]", gi, src), renderResult(on), renderResult(off))
		}
	}
	if dispatched < 4 {
		t.Errorf("intersection dispatched %d times across the battery, want >= 4", dispatched)
	}
}

// TestBatchCancelMidBatch cancels the context after the first row of a
// long evaluation and requires the batch pipeline to surface the
// context error promptly, sequential and parallel, acyclic and cyclic.
func TestBatchCancelMidBatch(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 300, AvgDegree: 6, BlockedFraction: 0.1, Seed: 31})
	snap := graph.Snapshot(g)
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y)-[u:Transfer]->(z)-[v:Transfer]->(w)`,
		`MATCH (a)-[:Transfer]->(b), (b)-[:Transfer]->(c), (c)-[:Transfer]->(a)`,
	}
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for _, cfg := range []Config{{}, {Parallelism: 4}} {
			ctx, cancel := context.WithCancel(context.Background())
			cur, err := StreamPlan(ctx, snap, p, cfg)
			if err != nil {
				t.Fatalf("%s: StreamPlan: %v", src, err)
			}
			if row, err := cur.Next(); err != nil || row == nil {
				t.Fatalf("%s: first row: %v %v", src, row, err)
			}
			cancel()
			// Cancellation is polled every cancelCheckInterval node
			// expansions (the row pipeline's cadence), so the stream may
			// deliver buffered rows first but must error before draining.
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
			if lastErr != nil && !errors.Is(lastErr, context.Canceled) {
				t.Errorf("%s par=%d: got error %v, want context.Canceled", src, cfg.Parallelism, lastErr)
			}
			if lastErr == nil {
				t.Errorf("%s par=%d: stream drained to completion after cancel", src, cfg.Parallelism)
			}
			if err := cur.Close(); err != nil {
				t.Errorf("%s par=%d: Close: %v", src, cfg.Parallelism, err)
			}
		}
	}
}
