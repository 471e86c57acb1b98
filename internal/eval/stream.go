package eval

import (
	"context"
	"errors"
	"fmt"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Pull-based streaming execution. Every stage of the §6 pipeline is a
// Cursor: the consumer pulls rows one at a time, and only genuinely
// blocking stages buffer anything:
//
//   - enumerate / reduce / dedup / select stream at per-seed granularity:
//     dedup keys never collide across seed nodes (every key embeds the
//     path, whose first node is the seed) and Fig 8's selector partitions
//     are keyed on path endpoints, whose first is the seed — so the
//     per-seed pipeline is exact and buffering is bounded by one seed's
//     matches, never the total;
//   - the canonical (path length, binding key) sort is the only truly
//     blocking stage, and only Eval applies it — Stream emits rows in
//     deterministic pipeline order (seed-major, per-seed pipeline order)
//     and skips the sort entirely, which is what buys first-row latency;
//   - joins stream their probe side; a seeded bind-join step solves seed
//     nodes lazily and memoizes, a hash-join fallback step materializes
//     only the pattern it joins against.
//
// Sequential evaluation runs the whole pipeline on the consumer's
// goroutine (next() advances the engine one seed at a time — no channels,
// no scheduling, no overhead over the materializing pipeline it
// replaced); only Parallelism > 1 starts a worker pool, whose per-seed
// batches are emitted in seed order over a channel.
//
// Eval is a thin collect-all wrapper: drain the cursor, apply the
// canonical sort. Because deduplicated binding keys are unique, the sort
// fully determines row order, making Eval's output byte-identical to the
// materializing pipeline it replaced (the same argument that made the
// PR-3 bind-join exact; see bindjoin.go).
//
// Cancellation: the pipeline carries a context (and, for the parallel
// stream, a stop channel). Generator goroutines select on both at every
// send, and the engines poll budget.checkCancel every
// cancelCheckInterval edge expansions, so a cancelled context or an
// abandoned cursor stops an in-flight search in microseconds, not at the
// next match.

// Cursor is the pull-based operator interface. Next returns the next
// result row, or (nil, nil) when the stream is exhausted. Close releases
// the pipeline's resources — generator goroutines, worker pools — and
// must be called exactly once when the consumer is done, whether or not
// the stream was drained; it blocks until every goroutine has exited, so
// a closed cursor leaks nothing. Cursors are not safe for concurrent use;
// cancel the pipeline's context to abort from another goroutine.
type Cursor interface {
	Next() (*Row, error)
	Close() error
}

// errStreamStopped is the internal sentinel an engine run returns when the
// consumer closed the stream: normal early termination, filtered at the
// pipeline boundary, never surfaced to callers.
var errStreamStopped = errors.New("eval: stream stopped")

// StreamPlan builds the streaming pipeline for a plan over one store.
// The returned cursor must be closed; see Cursor.
func StreamPlan(ctx context.Context, s graph.Store, p *plan.Plan, cfg Config) (Cursor, error) {
	stores := make([]graph.Store, len(p.Paths))
	for i := range stores {
		stores[i] = s
	}
	return StreamPlanOn(ctx, stores, p, cfg)
}

// StreamPlanOn builds the streaming pipeline with per-pattern stores (the
// multi-graph EvalPlanOn form). With the bind-join planner enabled the
// whole pipeline streams; with DisableBindJoin the classic multi-pattern
// pipeline materializes every pattern eagerly at construction (preserving
// its A/B-reference semantics exactly), so this call may then do the bulk
// of the work before returning.
func StreamPlanOn(ctx context.Context, stores []graph.Store, p *plan.Plan, cfg Config) (Cursor, error) {
	if len(stores) != len(p.Paths) {
		return nil, fmt.Errorf("eval: %d graphs for %d path patterns", len(stores), len(p.Paths))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Pin epoch sources once for the whole query, so every pattern source,
	// the variable router, and the post-join filters observe one epoch
	// even while a writer keeps publishing. The identity memo maps equal
	// Store values to one pinned snapshot, preserving the shared-store
	// fast path (compact index-based join keys) below.
	{
		pinned := make(map[graph.Store]graph.Store, 1)
		out := make([]graph.Store, len(stores))
		for i, s := range stores {
			ps, ok := pinned[s]
			if !ok {
				ps = graph.Pin(s)
				pinned[s] = ps
			}
			out[i] = ps
		}
		stores = out
	}
	// Per-variable lookup routing: the first store whose pattern declares
	// the variable (the EvalPlanOn contract). Stores are normalized to
	// their indexed views — the same object the engines stamp into each
	// binding's Src — so on the single-store fast path the row resolver
	// can see that a binding's index is already relative to the routed
	// store and skip re-interning.
	varGraph := map[string]graph.Store{}
	for i, pp := range p.Paths {
		for _, v := range pp.Vars {
			if _, ok := varGraph[v]; !ok {
				varGraph[v] = graph.AsStepper(stores[i])
			}
		}
	}
	// Compact index-based join keys need every pattern on one shared
	// store; multi-graph evaluation (and the StringKeys reference mode)
	// joins by materialized element id.
	byIdx := !cfg.StringKeys
	for i := 1; i < len(stores); i++ {
		if stores[i] != stores[0] {
			byIdx = false
			break
		}
	}
	// The vectorized batch pipeline takes over whole statements in its
	// fragment (flat chains, shared store); it builds its own post-join
	// stages and boundary adapter, so it returns directly.
	if cur, ok := newBatchPipeline(ctx, stores, p, cfg, byIdx); ok {
		return cur, nil
	}
	var cur Cursor
	if len(p.Paths) > 1 && cfg.DisableBindJoin {
		c, err := newClassicJoinCursor(ctx, stores, p, cfg, byIdx)
		if err != nil {
			return nil, err
		}
		cur = c
	} else if len(p.Paths) > 1 {
		cur = newBindJoinCursor(ctx, stores, p, cfg, byIdx)
	} else {
		pp := p.Paths[0]
		cur = &matchCursor{
			src:    newPatternSource(ctx, stores[0], pp, cfg),
			p:      p,
			pp:     pp,
			prefix: &Row{},
		}
	}
	// Post-join stages: all row-local, all streaming.
	if cfg.EdgeIsomorphic {
		cur = &filterCursor{src: cur, keep: func(row *Row) (bool, error) {
			return rowEdgeIsomorphic(row), nil
		}}
	}
	if p.Post != nil {
		g := graph.AsStepper(stores[0])
		cur = &filterCursor{src: cur, keep: func(row *Row) (bool, error) {
			t, err := EvalPred(p.Post, rowResolver{g, varGraph, row, cfg.Params})
			if err != nil {
				return false, err
			}
			return t.IsTrue(), nil
		}}
	}
	if cfg.Limit > 0 {
		cur = &limitCursor{src: cur, remaining: cfg.Limit}
	}
	return cur, nil
}

// Collect drains a cursor, closes it, and restores the canonical row
// order (sortRowsCanonical) — the collect-all wrapper Eval is built on.
func Collect(cur Cursor, p *plan.Plan) (*Result, error) {
	defer cur.Close()
	var rows []*Row
	for {
		row, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		rows = append(rows, row)
	}
	sortRowsCanonical(rows, len(p.Paths))
	return &Result{Columns: p.Columns, Rows: rows}, nil
}

// cancelCheck builds the budget poll hook: a closed stop channel reports
// the internal stopped sentinel (normal early termination); a cancelled
// context reports its error (surfaced to the caller).
func cancelCheck(ctx context.Context, stop <-chan struct{}) func() error {
	return func() error {
		select {
		case <-stop:
			return errStreamStopped
		default:
		}
		return ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Pattern sources: one pattern's selected solutions, produced incrementally
// (the full §6 single-pattern pipeline: enumerate, reduce, dedup, select,
// at per-seed granularity).

// solSource streams one path pattern's solutions. next returns (nil, nil)
// at exhaustion; close releases any resources (for the parallel stream,
// it stops the worker pool and blocks until every goroutine has exited).
type solSource interface {
	next() (*binding.Reduced, error)
	close()
}

// newPatternSource builds the pattern's solution source: a synchronous
// pull source normally — the consumer's next() runs the engine one seed
// at a time on its own goroutine, so sequential evaluation pays zero
// scheduling or channel cost — and a worker-pool generator stream under
// Parallelism > 1. Either owns a fresh budget wired to the pipeline's
// cancellation hook.
func newPatternSource(ctx context.Context, s graph.Store, pp *plan.PathPlan, cfg Config) solSource {
	st := graph.AsStepper(s)
	seeds := seedNodes(st, pp)
	if cfg.Parallelism > 1 && len(seeds) > 1 {
		return newParallelSolStream(ctx, st, pp, cfg, seeds)
	}
	bud := newBudget(cfg.Limits.withDefaults())
	bud.check = cancelCheck(ctx, nil)
	return &syncSolSource{
		solver: newSeedSolver(st, pp, cfg, bud),
		seeds:  seeds,
	}
}

// syncSolSource pulls solutions seed by seed with no goroutines: one
// seed's pipeline output is buffered (bounded by that seed's matches,
// never the total), handed out solution by solution, and the next seed
// runs only when the buffer empties — so a LIMIT-cut or abandoned
// consumer never pays for seeds it didn't reach. The seed ids are
// materialized up front (O(#seeds) ids, far below the old pipeline's
// O(#solutions) buffering).
type syncSolSource struct {
	solver *seedSolver
	seeds  []int
	at     int
	buf    []*binding.Reduced
	bufAt  int
}

func (c *syncSolSource) next() (*binding.Reduced, error) {
	for {
		if c.bufAt < len(c.buf) {
			sol := c.buf[c.bufAt]
			c.bufAt++
			return sol, nil
		}
		if c.at >= len(c.seeds) {
			return nil, nil
		}
		seed := c.seeds[c.at]
		c.at++
		sols, err := c.solver.solve(seed)
		if err != nil {
			return nil, err
		}
		c.buf, c.bufAt = sols, 0
	}
}

func (c *syncSolSource) close() {}

// solStream is the parallel pattern source: the row scatter's solution
// lists, handed out one solution at a time.
type solStream struct {
	sc  *scatter[[]*binding.Reduced]
	buf []*binding.Reduced
}

// newParallelSolStream starts the row scatter, pinning workers to
// partitions when the store is sharded.
func newParallelSolStream(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config, seeds []int) *solStream {
	sc := &scatter[[]*binding.Reduced]{empty: func(sols []*binding.Reduced) bool { return len(sols) == 0 }}
	pv, _ := st.(graph.PartitionedView)
	sc.start(ctx, cfg, seeds, pv, func(bud *budget) func(lo, hi int) ([]*binding.Reduced, error) {
		solver := newSeedSolver(st, pp, cfg, bud)
		return func(lo, hi int) ([]*binding.Reduced, error) {
			var out []*binding.Reduced
			for _, seed := range seeds[lo:hi] {
				sols, err := solver.solve(seed)
				if err != nil {
					return nil, err
				}
				out = append(out, sols...)
			}
			return out, nil
		}
	})
	return &solStream{sc: sc}
}

// next returns the next solution, or (nil, nil) at exhaustion.
func (ps *solStream) next() (*binding.Reduced, error) {
	for len(ps.buf) == 0 {
		sols, ok, err := ps.sc.next()
		if !ok {
			return nil, err
		}
		ps.buf = sols
	}
	sol := ps.buf[0]
	ps.buf = ps.buf[1:]
	return sol, nil
}

func (ps *solStream) close() { ps.sc.close() }

// collectStream drains a pattern source into a solution slice — the
// cancellable materialization used by blocking join inputs.
func collectStream(ps solSource) ([]*binding.Reduced, error) {
	defer ps.close()
	var out []*binding.Reduced
	for {
		sol, err := ps.next()
		if err != nil {
			return nil, err
		}
		if sol == nil {
			return out, nil
		}
		out = append(out, sol)
	}
}

// ---------------------------------------------------------------------------
// Row operators.

// matchCursor maps one pattern's solution stream to result rows by
// merging each solution into a fixed prefix row (the first/only join
// step).
type matchCursor struct {
	src    solSource
	p      *plan.Plan
	pp     *plan.PathPlan
	prefix *Row
}

func (c *matchCursor) Next() (*Row, error) {
	for {
		sol, err := c.src.next()
		if sol == nil || err != nil {
			return nil, err
		}
		if merged, ok := mergeRow(c.p, c.pp, c.prefix, sol); ok {
			return merged, nil
		}
	}
}

func (c *matchCursor) Close() error {
	c.src.close()
	return nil
}

// filterCursor keeps the rows a predicate admits (edge-isomorphic match
// mode, the final WHERE postfilter).
type filterCursor struct {
	src  Cursor
	keep func(*Row) (bool, error)
}

func (c *filterCursor) Next() (*Row, error) {
	for {
		row, err := c.src.Next()
		if row == nil || err != nil {
			return nil, err
		}
		ok, err := c.keep(row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (c *filterCursor) Close() error { return c.src.Close() }

// limitCursor ends the stream after n rows — the LIMIT pushdown: in a
// pull pipeline, not asking for the (n+1)-th row is what stops every
// upstream stage from computing it.
type limitCursor struct {
	src       Cursor
	remaining int
}

func (c *limitCursor) Next() (*Row, error) {
	if c.remaining <= 0 {
		return nil, nil
	}
	row, err := c.src.Next()
	if row != nil && err == nil {
		c.remaining--
	}
	return row, err
}

func (c *limitCursor) Close() error { return c.src.Close() }

// sliceCursor serves pre-materialized rows (the classic pipeline).
type sliceCursor struct {
	rows []*Row
	at   int
}

func (c *sliceCursor) Next() (*Row, error) {
	if c.at >= len(c.rows) {
		return nil, nil
	}
	row := c.rows[c.at]
	c.at++
	return row, nil
}

func (c *sliceCursor) Close() error { return nil }

// newClassicJoinCursor reproduces the pre-planner multi-pattern pipeline
// exactly (the DisableBindJoin A/B reference): every pattern is
// materialized eagerly in textual order — budgets, limit errors and all —
// then hash-joined. Only the result delivery streams.
func newClassicJoinCursor(ctx context.Context, stores []graph.Store, p *plan.Plan, cfg Config, byIdx bool) (Cursor, error) {
	perPattern := make([][]*binding.Reduced, len(p.Paths))
	for i, pp := range p.Paths {
		sols, err := matchPatternStream(ctx, stores[i], pp, cfg)
		if err != nil {
			return nil, err
		}
		perPattern[i] = sols
	}
	rows := []*Row{{}}
	bound := map[string]bool{}
	for patIdx, solutions := range perPattern {
		pp := p.Paths[patIdx]
		rows = joinPattern(p, pp, rows, solutions, sharedVars(p, pp, bound), byIdx)
		markBound(bound, pp)
		if len(rows) == 0 {
			break
		}
	}
	return &sliceCursor{rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Streaming bind-join.

// newBindJoinCursor builds the cost-ordered bind-join pipeline as a chain
// of join-step cursors: rows stream through every step, and each step
// only does the per-seed work its input rows demand. byIdx selects the
// compact index-based join keys (single shared store).
func newBindJoinCursor(ctx context.Context, stores []graph.Store, p *plan.Plan, cfg Config, byIdx bool) Cursor {
	steps := plan.OrderJoin(p, storeStatsFor(stores))
	bound := map[string]bool{}
	var cur Cursor
	for k, step := range steps {
		pp := p.Paths[step.Pattern]
		shared := sharedVars(p, pp, bound)
		switch {
		case k == 0:
			// The first step joins against the single empty row: a pure
			// pattern scan, streamed straight off the engines.
			cur = &matchCursor{
				src:    newPatternSource(ctx, stores[step.Pattern], pp, cfg),
				p:      p,
				pp:     pp,
				prefix: &Row{},
			}
		case step.SeedVar != "" && bound[step.SeedVar]:
			cur = &bindStepCursor{
				ctx: ctx, s: stores[step.Pattern], p: p, pp: pp, cfg: cfg,
				seedVar: step.SeedVar, shared: shared, byIdx: byIdx, left: cur,
				memo: map[int]*seedIndex{},
			}
		default:
			cur = &hashStepCursor{
				ctx: ctx, s: stores[step.Pattern], p: p, pp: pp, cfg: cfg,
				shared: shared, byIdx: byIdx, left: cur,
			}
		}
		markBound(bound, pp)
	}
	return cur
}

// seedIndex is one seed node's selected solutions, hash-indexed by the
// step's shared-variable join key.
type seedIndex struct {
	byKey map[string][]*binding.Reduced
}

func buildSeedIndex(sols []*binding.Reduced, shared []string, byIdx bool) *seedIndex {
	idx := &seedIndex{byKey: make(map[string][]*binding.Reduced, len(sols))}
	var buf []byte
	for _, sol := range sols {
		buf = appendJoinKeyOfSolution(buf[:0], sol, shared, byIdx)
		idx.byKey[string(buf)] = append(idx.byKey[string(buf)], sol)
	}
	return idx
}

// bindStepCursor joins one pattern into the row stream by seeding its
// engine runs from each row's binding of the planner-chosen seed
// variable. Seeds are solved lazily — the first row that needs a seed
// pays for it, later rows reuse the memo — so a LIMIT that is satisfied
// early never enumerates the seeds it didn't reach. With Parallelism > 1
// the cursor prefetches a bounded chunk of input rows and solves their
// unseen seeds on a worker pool.
type bindStepCursor struct {
	ctx     context.Context
	s       graph.Store
	p       *plan.Plan
	pp      *plan.PathPlan
	cfg     Config
	seedVar string
	shared  []string
	byIdx   bool
	left    Cursor

	// bud is the step's shared search budget: limits accounting spans
	// every seed run of the step — sequential or chunked-parallel —
	// exactly like the materializing pipeline's per-step budget did.
	bud    *budget
	solver *seedSolver
	memo   map[int]*seedIndex
	// st is the step's indexed topology view (memoized per store, shared
	// with parallel chunk workers).
	st     graph.Stepper
	keyBuf []byte

	// chunk is the prefetched left rows awaiting expansion; row/cands/ci
	// is the in-flight expansion head.
	chunk   []*Row
	chunkAt int
	row     *Row
	cands   []*binding.Reduced
	ci      int
	done    bool // left exhausted
}

// bindChunkSize bounds the prefetched left rows under Parallelism > 1:
// large enough to keep a worker pool busy, small enough that LIMIT-bound
// consumers don't drag in much speculative work.
const bindChunkSize = 128

func (c *bindStepCursor) Next() (*Row, error) {
	for {
		// Drain the in-flight expansion first.
		for c.ci < len(c.cands) {
			sol := c.cands[c.ci]
			c.ci++
			if merged, ok := mergeRow(c.p, c.pp, c.row, sol); ok {
				return merged, nil
			}
		}
		// Advance to the next prefetched row.
		if c.chunkAt < len(c.chunk) {
			row := c.chunk[c.chunkAt]
			c.chunkAt++
			cands, err := c.candidates(row)
			if err != nil {
				return nil, err
			}
			c.row, c.cands, c.ci = row, cands, 0
			continue
		}
		if c.done {
			return nil, nil
		}
		if err := c.refill(); err != nil {
			return nil, err
		}
		if len(c.chunk) == 0 {
			return nil, nil
		}
	}
}

// refill pulls the next chunk of left rows and, under parallelism,
// pre-solves their unseen seeds on a worker pool.
func (c *bindStepCursor) refill() error {
	want := 1
	if c.cfg.Parallelism > 1 {
		want = bindChunkSize
	}
	c.chunk = c.chunk[:0]
	c.chunkAt = 0
	for len(c.chunk) < want {
		row, err := c.left.Next()
		if err != nil {
			return err
		}
		if row == nil {
			c.done = true
			break
		}
		c.chunk = append(c.chunk, row)
	}
	if c.cfg.Parallelism > 1 && len(c.chunk) > 1 {
		var seeds []int
		seen := map[int]bool{}
		for _, row := range c.chunk {
			if b, ok := row.lookup(c.seedVar); ok && b.Kind == BoundNode {
				si, ok := c.seedIdxOf(b)
				if !ok {
					continue
				}
				if _, cached := c.memo[si]; !cached && !seen[si] {
					seen[si] = true
					seeds = append(seeds, si)
				}
			}
		}
		if len(seeds) > 1 {
			perSeed, err := c.solveSeedsParallel(seeds)
			if err != nil {
				return err
			}
			for i, seed := range seeds {
				c.memo[seed] = buildSeedIndex(perSeed[i], c.shared, c.byIdx)
			}
		}
	}
	return nil
}

// seedIdxOf resolves a row's seed binding to a node index in the step's
// store. On the shared-store fast path the row's interned index is used
// directly; multi-graph evaluation (and the StringKeys reference mode)
// joins by id, so the id is re-interned against this pattern's store —
// an id unknown here joins nothing, like the materializing pipeline.
func (c *bindStepCursor) seedIdxOf(b Bound) (int, bool) {
	if c.byIdx {
		return int(b.Idx), true
	}
	i, ok := c.s.InternNode(b.Node)
	return int(i), ok
}

// candidates returns the step solutions joinable with one row: the row's
// seed node is solved (memoized), and its solutions are probed with the
// full shared-variable key — the same equi-join the hash join performs.
// A row that does not bind the seed variable to a node joins nothing:
// the seed variable is an unconditional singleton head variable, so every
// solution binds it to a node and no join key can match (the check
// mirrors the materializing pipeline's defensive fallback).
func (c *bindStepCursor) candidates(row *Row) ([]*binding.Reduced, error) {
	b, ok := row.lookup(c.seedVar)
	if !ok || b.Kind != BoundNode {
		return nil, nil
	}
	si, ok := c.seedIdxOf(b)
	if !ok {
		return nil, nil
	}
	idx, cached := c.memo[si]
	if !cached {
		if c.solver == nil {
			c.solver = newSeedSolver(c.stepper(), c.pp, c.cfg, c.budget())
		}
		sols, err := c.solver.solve(si)
		if err != nil {
			return nil, err
		}
		idx = buildSeedIndex(sols, c.shared, c.byIdx)
		c.memo[si] = idx
	}
	c.keyBuf = appendJoinKeyOfRow(c.keyBuf[:0], row, c.shared, c.byIdx)
	return idx.byKey[string(c.keyBuf)], nil
}

// solveSeedsParallel runs the per-seed pipeline for a chunk's unseen
// seeds on a worker pool (one solver per worker, budget shared with the
// sequential solver's step budget semantics).
func (c *bindStepCursor) solveSeedsParallel(seeds []int) ([][]*binding.Reduced, error) {
	st := c.stepper()
	bud := c.budget()
	out := make([][]*binding.Reduced, len(seeds))
	err := solveEach(c.cfg.Parallelism, len(seeds), func() func(int) error {
		solver := newSeedSolver(st, c.pp, c.cfg, bud)
		return func(i int) error {
			sols, err := solver.solve(seeds[i])
			out[i] = sols
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stepper lazily resolves the step's indexed topology view.
func (c *bindStepCursor) stepper() graph.Stepper {
	if c.st == nil {
		c.st = graph.AsStepper(c.s)
	}
	return c.st
}

// budget lazily builds the step's shared budget, wired to the pipeline
// context.
func (c *bindStepCursor) budget() *budget {
	if c.bud == nil {
		c.bud = newBudget(c.cfg.Limits.withDefaults())
		c.bud.check = cancelCheck(c.ctx, nil)
	}
	return c.bud
}

func (c *bindStepCursor) Close() error { return c.left.Close() }

// hashStepCursor joins one pattern into the row stream by classic hash
// join: the pattern (no usable seed variable — a disconnected fragment,
// or no bound head var) is materialized lazily on the first input row,
// and input rows probe it. With no shared variables it degenerates to the
// cross product, exactly like the materializing pipeline.
type hashStepCursor struct {
	ctx    context.Context
	s      graph.Store
	p      *plan.Plan
	pp     *plan.PathPlan
	cfg    Config
	shared []string
	byIdx  bool
	left   Cursor

	built  bool
	index  map[string][]*binding.Reduced
	keyBuf []byte

	row   *Row
	cands []*binding.Reduced
	ci    int
}

func (c *hashStepCursor) Next() (*Row, error) {
	for {
		for c.ci < len(c.cands) {
			sol := c.cands[c.ci]
			c.ci++
			if merged, ok := mergeRow(c.p, c.pp, c.row, sol); ok {
				return merged, nil
			}
		}
		row, err := c.left.Next()
		if row == nil || err != nil {
			return nil, err
		}
		if !c.built {
			// First input row: materialize the build side. Lazy, so an
			// empty or LIMIT-cut input never enumerates the pattern —
			// mirroring the bind-join pipeline's early exit on zero rows.
			sols, err := matchPatternStream(c.ctx, c.s, c.pp, c.cfg)
			if err != nil {
				return nil, err
			}
			c.index = make(map[string][]*binding.Reduced, len(sols))
			for _, sol := range sols {
				c.keyBuf = appendJoinKeyOfSolution(c.keyBuf[:0], sol, c.shared, c.byIdx)
				c.index[string(c.keyBuf)] = append(c.index[string(c.keyBuf)], sol)
			}
			c.built = true
		}
		c.row = row
		c.keyBuf = appendJoinKeyOfRow(c.keyBuf[:0], row, c.shared, c.byIdx)
		c.cands = c.index[string(c.keyBuf)]
		c.ci = 0
	}
}

func (c *hashStepCursor) Close() error { return c.left.Close() }

// matchPatternStream is MatchPattern through the cancellable streaming
// machinery: full single-pattern pipeline, canonically sorted.
func matchPatternStream(ctx context.Context, s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.Reduced, error) {
	sols, err := collectStream(newPatternSource(ctx, s, pp, cfg))
	if err != nil {
		return nil, err
	}
	binding.SortStable(sols)
	return sols, nil
}
