package eval

import (
	"context"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Batch pipeline assembly. newBatchPipeline is the single entry point the
// streaming layer probes: it returns a row cursor backed by batch
// operators when the statement fits the vectorized fragment, or
// (nil, false) to fall back to the row pipeline. The fragment:
//
//   - every path pattern is a flat chain (plan.FlatChain) — fixed-width
//     tuples are what the columns carry;
//   - compact index keys are sound (single shared store, no StringKeys) —
//     columns hold dense indices with no per-row materialization;
//   - multi-pattern statements join exclusively through seeded bind-join
//     steps (hash-join fallbacks and the DisableBindJoin reference
//     pipeline stay row-at-a-time).
//
// On top of the bind-join dispatch, a detected cyclic core whose cost
// model favors intersection runs on the worst-case-optimal leapfrog
// operator (intersect.go) when the store provides sorted adjacency and no
// LIMIT demands bind-join row order; the acyclic remainder still probes
// via batch bind-joins.

// newBatchPipeline builds the vectorized pipeline, or reports false when
// the statement needs the row pipeline.
func newBatchPipeline(ctx context.Context, stores []graph.Store, p *plan.Plan, cfg Config, byIdx bool) (Cursor, bool) {
	if cfg.DisableVectorize || !byIdx {
		return nil, false
	}
	for _, pp := range p.Paths {
		if pp.Chain == nil {
			return nil, false
		}
	}
	if len(p.Paths) > 1 && cfg.DisableBindJoin {
		return nil, false
	}
	st := graph.AsStepper(stores[0])

	if len(p.Paths) == 1 {
		pp := p.Paths[0]
		lay := newBatchLayout(p, st, cfg.Params, []*plan.PathPlan{pp})
		return finishBatchPipeline(newBatchSource(ctx, st, pp, cfg, lay.width), lay, p, cfg), true
	}

	stats := storeStatsFor(stores)
	steps := plan.OrderJoin(p, stats)
	core := dispatchCore(p, stats, stores[0], cfg)
	if core != nil {
		rem := plan.OrderJoinRemainder(p, stats, core)
		if !allSeeded(remSeedable(p, core), rem, p) {
			core = nil
		} else {
			steps = rem
		}
	}
	if core == nil {
		bound := map[string]bool{}
		for k, stp := range steps {
			if k > 0 && (stp.SeedVar == "" || !bound[stp.SeedVar]) {
				return nil, false
			}
			markBound(bound, p.Paths[stp.Pattern])
		}
	}

	// Column layout: core patterns (ascending) first, then the probe
	// steps in join order — the order groups merge into rows.
	var pats []*plan.PathPlan
	if core != nil {
		for _, i := range core.Patterns {
			pats = append(pats, p.Paths[i])
		}
	}
	probeAt := len(pats)
	for _, stp := range steps {
		pats = append(pats, p.Paths[stp.Pattern])
	}
	lay := newBatchLayout(p, st, cfg.Params, pats)

	var cur BatchCursor
	bound := map[string]bool{}
	if core != nil {
		ss, _ := graph.AsSorted(stores[0])
		cur = newIntersectSource(ctx, ss, p, core, cfg)
		for _, i := range core.Patterns {
			markBound(bound, p.Paths[i])
		}
	} else {
		// steps[0] is the leading scan; its group is the first probe slot.
		lead := steps[0]
		cur = newBatchSource(ctx, st, p.Paths[lead.Pattern], cfg, lay.width)
		markBound(bound, p.Paths[lead.Pattern])
		probeAt++
		steps = steps[1:]
	}
	for k, stp := range steps {
		g := &lay.groups[probeAt+k]
		cur = newBatchBindStep(ctx, st, lay, g, cfg, sharedVars(p, g.pp, bound), stp.SeedVar, cur)
		markBound(bound, g.pp)
	}
	return finishBatchPipeline(cur, lay, p, cfg), true
}

// dispatchCore gates the intersection operator: a detected cyclic core,
// cost model in favor, intersection not disabled, no LIMIT (the
// intersection emits rows in elimination order, not bind-join order, so
// LIMIT prefixes would differ), and sorted adjacency available.
func dispatchCore(p *plan.Plan, stats []graph.StoreStats, s graph.Store, cfg Config) *plan.CorePlan {
	if cfg.DisableIntersect || cfg.Limit > 0 {
		return nil
	}
	if _, ok := graph.AsSorted(s); !ok {
		return nil
	}
	core := plan.DetectCyclicCore(p, stats)
	if core == nil || !core.UseIntersect() {
		return nil
	}
	return core
}

// remSeedable is the variable set the core binds, the starting point for
// checking that every remainder step has a bound seed variable.
func remSeedable(p *plan.Plan, core *plan.CorePlan) map[string]bool {
	bound := map[string]bool{}
	for _, i := range core.Patterns {
		markBound(bound, p.Paths[i])
	}
	return bound
}

// allSeeded reports whether every remainder step probes through a bound
// seed variable (batch probes have no hash-join fallback).
func allSeeded(bound map[string]bool, steps []plan.JoinStep, p *plan.Plan) bool {
	for _, stp := range steps {
		if stp.SeedVar == "" || !bound[stp.SeedVar] {
			return false
		}
		markBound(bound, p.Paths[stp.Pattern])
	}
	return true
}

// newBatchSource picks the sequential or parallel chain enumerator.
func newBatchSource(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config, width int) BatchCursor {
	seeds := seedNodes(st, pp)
	if cfg.Parallelism > 1 && len(seeds) > 1 {
		return newParallelBatchSource(ctx, st, pp, cfg, width, seeds)
	}
	return newBatchChainSource(ctx, st, pp, cfg, width, seeds)
}

// finishBatchPipeline stacks the row-local stages (edge isomorphism,
// postfilter, limit) and the boundary adapter, mirroring StreamPlanOn's
// post-join stage order.
func finishBatchPipeline(cur BatchCursor, lay *batchLayout, p *plan.Plan, cfg Config) Cursor {
	if cfg.EdgeIsomorphic {
		cur = &batchFilter{src: cur, keep: func(b *Batch, r int32) (bool, error) {
			return lay.edgeIso(b, r), nil
		}}
	}
	if p.Post != nil {
		cur = &batchFilter{src: cur, keep: func(b *Batch, r int32) (bool, error) {
			t, err := EvalPred(p.Post, colResolver{lay, b, r})
			if err != nil {
				return false, err
			}
			return t.IsTrue(), nil
		}}
	}
	if cfg.Limit > 0 {
		cur = &batchLimit{src: cur, remaining: cfg.Limit}
	}
	return &batchRowCursor{lay: lay, src: cur}
}

// ---------------------------------------------------------------------------
// Batch bind-join probe.

// probeEq is one shared-variable equality between a left column and a
// probe-pattern chain position. never marks a static kind clash (node
// variable joined against edge variable): the equality can never hold, so
// the step emits nothing — while still draining and solving exactly what
// the row pipeline's key probe would.
type probeEq struct {
	leftCol int
	pos     int
	never   bool
}

// seedSols is one seed's solved solutions in columnar form.
type seedSols struct {
	cols [][]graph.ElemIdx
}

func (s *seedSols) n() int {
	if len(s.cols) == 0 {
		return 0
	}
	return len(s.cols[0])
}

// batchBindStep joins one flat-chain pattern into the batch stream by
// seeding its chain enumerator from each input row's seed column. Seeds
// are solved lazily and memoized (columnar), probe equalities are applied
// inline per candidate, and output rows append the left row's columns
// plus the solution columns. With Parallelism > 1 each fresh input batch
// pre-solves its unseen seeds on a worker pool, like the row pipeline's
// chunked prefetch.
type batchBindStep struct {
	ctx context.Context
	st  graph.Stepper
	pp  *plan.PathPlan
	cfg Config

	left      BatchCursor
	leftWidth int
	npos      int
	seedCol   int
	// seedIsNode: the left seed column binds a node. A row pipeline input
	// whose seed binding is not a node joins nothing without solving; the
	// static column kind decides that here.
	seedIsNode bool
	eq         []probeEq

	bud  *budget
	enum *chainEnum
	// solBuf is the enum's emit target during a sequential solve.
	solBuf *seedSols
	memo   map[int]*seedSols

	out   *Batch
	first bool
	limit int

	// In-flight state: current left batch, row, and solution cursor.
	lb    *Batch
	lbAt  int
	lbRow int32
	sols  *seedSols
	solAt int
}

// emptySols is the shared no-solutions value for rows that statically
// join nothing (seed column of edge kind).
var emptySols = &seedSols{}

func newBatchBindStep(ctx context.Context, st graph.Stepper, lay *batchLayout, g *patternGroup, cfg Config, shared []string, seedVar string, left BatchCursor) *batchBindStep {
	c := &batchBindStep{
		ctx:       ctx,
		st:        st,
		pp:        g.pp,
		cfg:       cfg,
		left:      left,
		leftWidth: g.off,
		npos:      g.npos,
		seedCol:   lay.varCol[seedVar],
		memo:      map[int]*seedSols{},
		out:       newBatch(g.off + g.npos),
		first:     true,
		limit:     cfg.Limit,
	}
	c.seedIsNode = lay.kinds[c.seedCol] == binding.NodeElem
	for _, v := range shared {
		if v == seedVar {
			continue // trivially equal: every solution is anchored at the seed
		}
		leftCol := lay.varCol[v]
		pos := 0
		for ; pos < g.npos; pos++ {
			if chainVar(g.pp.Chain, pos) == v {
				break
			}
		}
		c.eq = append(c.eq, probeEq{
			leftCol: leftCol,
			pos:     pos,
			never:   lay.kinds[leftCol] != lay.kinds[g.off+pos],
		})
	}
	return c
}

func (c *batchBindStep) budget() *budget {
	if c.bud == nil {
		c.bud = newBudget(c.cfg.Limits.withDefaults())
		c.bud.check = cancelCheck(c.ctx, nil)
	}
	return c.bud
}

// solsFor solves (or recalls) one seed's columnar solutions.
func (c *batchBindStep) solsFor(seed int) (*seedSols, error) {
	if s, ok := c.memo[seed]; ok {
		return s, nil
	}
	if c.enum == nil {
		c.enum = newChainEnum(c.st, c.pp.Chain, c.cfg.Limits.withDefaults(), c.budget(), func(tuple []graph.ElemIdx) error {
			for j, v := range tuple {
				c.solBuf.cols[j] = append(c.solBuf.cols[j], v)
			}
			return nil
		})
	}
	s := &seedSols{cols: make([][]graph.ElemIdx, c.npos)}
	c.solBuf = s
	err := c.enum.runSeed(seed)
	c.solBuf = nil
	if err != nil {
		return nil, err
	}
	c.memo[seed] = s
	return s, nil
}

// preSolve solves a fresh input batch's unseen seeds on a worker pool
// (shared step budget, errors surfaced in seed order).
func (c *batchBindStep) preSolve(b *Batch) error {
	if !c.seedIsNode {
		return nil
	}
	var seeds []int
	seen := map[int]bool{}
	for _, r := range b.sel {
		si := int(b.cols[c.seedCol][r])
		if _, cached := c.memo[si]; !cached && !seen[si] {
			seen[si] = true
			seeds = append(seeds, si)
		}
	}
	if len(seeds) < 2 {
		return nil
	}
	out := make([]*seedSols, len(seeds))
	bud := c.budget()
	err := solveEach(c.cfg.Parallelism, len(seeds), func() func(int) error {
		var cur *seedSols
		enum := newChainEnum(c.st, c.pp.Chain, c.cfg.Limits.withDefaults(), bud, func(tuple []graph.ElemIdx) error {
			for j, v := range tuple {
				cur.cols[j] = append(cur.cols[j], v)
			}
			return nil
		})
		return func(i int) error {
			cur = &seedSols{cols: make([][]graph.ElemIdx, c.npos)}
			if err := enum.runSeed(seeds[i]); err != nil {
				return err
			}
			out[i] = cur
			return nil
		}
	})
	if err != nil {
		return err
	}
	for i, si := range seeds {
		c.memo[si] = out[i]
	}
	return nil
}

// matches applies the probe equalities to one (left row, solution) pair.
func (c *batchBindStep) matches(r int32, s int) bool {
	for _, q := range c.eq {
		if q.never || c.lb.cols[q.leftCol][r] != c.sols.cols[q.pos][s] {
			return false
		}
	}
	return true
}

// appendRow emits one joined row: left columns then solution columns.
func (c *batchBindStep) appendRow(r int32, s int) {
	for j := 0; j < c.leftWidth; j++ {
		c.out.cols[j] = append(c.out.cols[j], c.lb.cols[j][r])
	}
	for j := 0; j < c.npos; j++ {
		c.out.cols[c.leftWidth+j] = append(c.out.cols[c.leftWidth+j], c.sols.cols[j][s])
	}
	c.out.sel = append(c.out.sel, int32(len(c.out.sel)))
}

func (c *batchBindStep) target() int {
	if c.first {
		return 1
	}
	if c.limit > 0 && c.limit < batchSize {
		return c.limit
	}
	return batchSize
}

func (c *batchBindStep) NextBatch() (*Batch, error) {
	c.out.clear()
	target := c.target()
	for {
		// Drain the in-flight solution list first.
		if c.sols != nil {
			for n := c.sols.n(); c.solAt < n; {
				if !c.matches(c.lbRow, c.solAt) {
					c.solAt++
					continue
				}
				if c.out.rows() >= target {
					c.first = false
					return c.out, nil
				}
				c.appendRow(c.lbRow, c.solAt)
				c.solAt++
			}
			c.sols = nil
			c.lbAt++
		}
		// Advance to the next live left row.
		if c.lb != nil && c.lbAt < len(c.lb.sel) {
			r := c.lb.sel[c.lbAt]
			c.lbRow = r
			if !c.seedIsNode {
				c.sols, c.solAt = emptySols, 0
				continue
			}
			sols, err := c.solsFor(int(c.lb.cols[c.seedCol][r]))
			if err != nil {
				return nil, err
			}
			c.sols, c.solAt = sols, 0
			continue
		}
		c.lb = nil
		if c.out.rows() >= target {
			c.first = false
			return c.out, nil
		}
		nb, err := c.left.NextBatch()
		if err != nil {
			return nil, err
		}
		if nb == nil {
			c.first = false
			if c.out.rows() > 0 {
				return c.out, nil
			}
			return nil, nil
		}
		c.lb, c.lbAt = nb, 0
		if c.cfg.Parallelism > 1 {
			if err := c.preSolve(nb); err != nil {
				return nil, err
			}
		}
	}
}

func (c *batchBindStep) Close() error { return c.left.Close() }
