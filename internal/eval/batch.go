package eval

import (
	"context"
	"sync"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Vectorized batch execution. When every path pattern of a statement is a
// flat chain (plan.FlatChain) on one shared store, the pipeline moves
// batches of ~batchSize rows between operators instead of one row at a
// time: a Batch carries one column of dense element indices per chain
// position, filters compact a selection vector in place, and only the
// boundary adapter (batchRowCursor) assembles *Row values — in exactly
// the order and with exactly the contents the row-at-a-time pipeline
// produces, so Rows/ForEach/conformance output is byte-identical. The
// chain enumerator mirrors the DFS machine move for move (same Steps
// iteration order, same label/equality check order, same self-loop
// double-emission, same budget and depth accounting), which is what makes
// the batch pipeline an exact drop-in rather than an approximation.

// batchSize is the row count operators aim for per batch: large enough to
// amortize per-batch overhead, small enough to stay cache-resident. The
// first batch of every operator is cut at one row so first-row latency
// matches the row pipeline; a seed's matches are never split mid-seed, so
// batches may overshoot the target.
const batchSize = 1024

// Batch is the columnar row carrier: one column per bound chain position,
// plus a selection vector of live row indices. Filters shrink sel without
// touching the columns; producers reset and refill. A batch is owned by
// its producing cursor and valid until that cursor's next NextBatch call.
type Batch struct {
	cols [][]graph.ElemIdx
	sel  []int32
}

func newBatch(width int) *Batch {
	return &Batch{cols: make([][]graph.ElemIdx, width)}
}

func (b *Batch) clear() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.sel = b.sel[:0]
}

// rows is the live row count (after filtering).
func (b *Batch) rows() int { return len(b.sel) }

// BatchCursor is the batch-granular pull interface, the columnar analogue
// of Cursor: NextBatch returns the next non-empty batch, or (nil, nil) at
// exhaustion. Close releases resources and must be called exactly once.
type BatchCursor interface {
	NextBatch() (*Batch, error)
	Close() error
}

// chainVar names the variable at a chain position (even = node, odd = edge).
func chainVar(c *plan.FlatChain, pos int) string {
	if pos%2 == 0 {
		return c.Nodes[pos/2].Var
	}
	return c.Edges[pos/2].Var
}

// ---------------------------------------------------------------------------
// Chain enumeration: the DFS machine specialized to flat chains, emitting
// columnar tuples instead of PathBindings.

// chainEnum enumerates one flat-chain pattern's deduplicated solutions
// anchored at a seed node, as fixed-width index tuples. It reproduces the
// DFS machine's observable behaviour exactly: Steps-order traversal,
// directed self-loops taken once per admitted direction (the duplicate
// removed by dedup, after being counted against the match budget), label
// and repeated-variable checks in the same order, MaxDepth errors at the
// same expansions, and cancellation polls at the same cadence.
type chainEnum struct {
	st    graph.Stepper
	nodes []*ast.NodePattern
	edges []*ast.EdgePattern
	// eqPos[i] is the earliest chain position binding the same non-anon
	// variable as position i (-1 when i is the first or the variable is
	// anonymous); eqOK[i] reports kind agreement — a node/edge kind clash
	// rejects every candidate, like the DFS binding equality does.
	eqPos    []int
	eqOK     []bool
	maxDepth int
	bud      *budget
	tuple    []graph.ElemIdx
	// seen is the per-seed dedup set (cleared between seeds — exact,
	// since a tuple embeds its seed in column 0).
	seen  map[string]struct{}
	ck    binding.ColKeyer
	ticks int
	emit  func(tuple []graph.ElemIdx) error
}

func newChainEnum(st graph.Stepper, chain *plan.FlatChain, lims Limits, bud *budget, emit func([]graph.ElemIdx) error) *chainEnum {
	w := len(chain.Nodes) + len(chain.Edges)
	e := &chainEnum{
		st:       st,
		nodes:    chain.Nodes,
		edges:    chain.Edges,
		eqPos:    make([]int, w),
		eqOK:     make([]bool, w),
		maxDepth: lims.MaxDepth,
		bud:      bud,
		tuple:    make([]graph.ElemIdx, w),
		seen:     map[string]struct{}{},
		emit:     emit,
	}
	first := map[string]int{}
	for i := 0; i < w; i++ {
		e.eqPos[i] = -1
		v := chainVar(chain, i)
		if ast.IsAnonVar(v) {
			continue // anonymous variables are unique per position
		}
		if j, ok := first[v]; ok {
			e.eqPos[i] = j
			e.eqOK[i] = i%2 == j%2
		} else {
			first[v] = i
		}
	}
	return e
}

// eqRejects applies the repeated-variable equality at a position: same
// element, same kind — the DFS bindElem contract.
func (e *chainEnum) eqRejects(pos int, v graph.ElemIdx) bool {
	j := e.eqPos[pos]
	if j < 0 {
		return false
	}
	return !e.eqOK[pos] || e.tuple[j] != v
}

// runSeed enumerates every deduplicated solution anchored at the seed.
func (e *chainEnum) runSeed(seed int) error {
	clear(e.seen)
	if np := e.nodes[0]; np.Label != nil && !np.Label.Matches(e.st.NodeByIndex(seed).Labels) {
		return nil
	}
	e.tuple[0] = graph.ElemIdx(seed)
	return e.expand(0)
}

// expand continues the match from node position np (chain position 2*np).
func (e *chainEnum) expand(np int) error {
	if np == len(e.nodes)-1 {
		return e.accept()
	}
	if np >= e.maxDepth {
		return &LimitError{What: "path depth", Limit: e.maxDepth}
	}
	if e.ticks++; e.ticks%cancelCheckInterval == 0 {
		if err := e.bud.checkCancel(); err != nil {
			return err
		}
	}
	ep := e.edges[np]
	var firstErr error
	e.st.Steps(int(e.tuple[2*np]), func(ei, oi int, kind graph.StepKind) bool {
		// A directed self-loop admitted in both directions is taken twice
		// (the duplicate reduces away in accept), mirroring the DFS.
		if kind == graph.StepLoop {
			if ep.Orientation.AllowsRight() {
				if err := e.traverse(np, ei, oi); err != nil {
					firstErr = err
					return false
				}
			}
			if ep.Orientation.AllowsLeft() {
				if err := e.traverse(np, ei, oi); err != nil {
					firstErr = err
					return false
				}
			}
			return true
		}
		if !stepAllowed(ep.Orientation, kind) {
			return true
		}
		if err := e.traverse(np, ei, oi); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	return firstErr
}

// traverse applies one edge traversal, in the DFS check order: edge
// label, edge equality, node label, node equality, recurse.
func (e *chainEnum) traverse(np, ei, oi int) error {
	if ep := e.edges[np]; ep.Label != nil && !ep.Label.Matches(e.st.EdgeByIndex(ei).Labels) {
		return nil
	}
	epos, npos := 2*np+1, 2*np+2
	if e.eqRejects(epos, graph.ElemIdx(ei)) {
		return nil
	}
	if nd := e.nodes[np+1]; nd.Label != nil && !nd.Label.Matches(e.st.NodeByIndex(oi).Labels) {
		return nil
	}
	if e.eqRejects(npos, graph.ElemIdx(oi)) {
		return nil
	}
	e.tuple[epos] = graph.ElemIdx(ei)
	e.tuple[npos] = graph.ElemIdx(oi)
	return e.expand(np + 1)
}

// accept accounts the raw match, dedups, and emits first occurrences —
// the same budget-then-dedup order as the row pipeline (accept counts the
// raw match, the per-seed pipeline removes duplicates afterwards).
func (e *chainEnum) accept() error {
	if err := e.bud.addMatch(); err != nil {
		return err
	}
	key := e.ck.Key(e.tuple)
	if _, dup := e.seen[string(key)]; dup {
		return nil
	}
	e.seen[string(key)] = struct{}{}
	return e.emit(e.tuple)
}

// ---------------------------------------------------------------------------
// Batch sources.

// batchChainSource enumerates a flat-chain pattern into batches, seed by
// seed on the consumer's goroutine (the sequential path). Batches are cut
// at seed boundaries once the fill target is reached; the first batch's
// target is one row, preserving the row pipeline's first-row latency, and
// a positive Limit caps the target so a LIMIT-bound consumer never pays
// for a full batch of discarded rows.
type batchChainSource struct {
	enum  *chainEnum
	seeds []int
	at    int
	out   *Batch
	limit int
	first bool
}

func newBatchChainSource(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config, width int, seeds []int) *batchChainSource {
	bud := newBudget(cfg.Limits.withDefaults())
	bud.check = cancelCheck(ctx, nil)
	src := &batchChainSource{
		seeds: seeds,
		out:   newBatch(width),
		limit: cfg.Limit,
		first: true,
	}
	src.enum = newChainEnum(st, pp.Chain, cfg.Limits.withDefaults(), bud, func(tuple []graph.ElemIdx) error {
		appendTuple(src.out, tuple)
		return nil
	})
	return src
}

// appendTuple appends a leading-group tuple as a new live row.
func appendTuple(b *Batch, tuple []graph.ElemIdx) {
	for j, v := range tuple {
		b.cols[j] = append(b.cols[j], v)
	}
	b.sel = append(b.sel, int32(len(b.sel)))
}

func (c *batchChainSource) target() int {
	if c.first {
		return 1
	}
	if c.limit > 0 && c.limit < batchSize {
		return c.limit
	}
	return batchSize
}

func (c *batchChainSource) NextBatch() (*Batch, error) {
	c.out.clear()
	target := c.target()
	for c.at < len(c.seeds) && c.out.rows() < target {
		seed := c.seeds[c.at]
		c.at++
		if err := c.enum.runSeed(seed); err != nil {
			return nil, err
		}
	}
	c.first = false
	if c.out.rows() == 0 {
		return nil, nil
	}
	return c.out, nil
}

func (c *batchChainSource) Close() error { return nil }

// parallelBatchSource enumerates a flat-chain pattern on the scatter, one
// batch per seed chunk, emitted in seed order. Batch buffers recycle
// through a sync.Pool: the consumer returns the previous batch on its
// next pull, so steady-state operation allocates nothing per batch.
type parallelBatchSource struct {
	sc   *scatter[*Batch]
	pool sync.Pool
	prev *Batch
}

func newParallelBatchSource(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config, width int, seeds []int) *parallelBatchSource {
	ps := &parallelBatchSource{}
	ps.pool.New = func() any { return newBatch(width) }
	ps.sc = &scatter[*Batch]{
		empty:   func(b *Batch) bool { return b.rows() == 0 },
		recycle: func(b *Batch) { ps.pool.Put(b) },
	}
	ps.sc.start(ctx, cfg, seeds, nil, func(bud *budget) func(lo, hi int) (*Batch, error) {
		var out *Batch
		enum := newChainEnum(st, pp.Chain, cfg.Limits.withDefaults(), bud, func(tuple []graph.ElemIdx) error {
			appendTuple(out, tuple)
			return nil
		})
		return func(lo, hi int) (*Batch, error) {
			out = ps.pool.Get().(*Batch)
			out.clear()
			for _, seed := range seeds[lo:hi] {
				if err := enum.runSeed(seed); err != nil {
					ps.pool.Put(out)
					return nil, err
				}
			}
			return out, nil
		}
	})
	return ps
}

func (ps *parallelBatchSource) NextBatch() (*Batch, error) {
	if ps.prev != nil {
		ps.pool.Put(ps.prev)
		ps.prev = nil
	}
	b, ok, err := ps.sc.next()
	if !ok {
		return nil, err
	}
	ps.prev = b
	return b, nil
}

func (ps *parallelBatchSource) Close() error {
	ps.sc.close()
	return nil
}

// ---------------------------------------------------------------------------
// Batch stages.

// batchFilter compacts each batch's selection vector to the rows a
// predicate admits (vectorized edge-isomorphism, the final WHERE).
type batchFilter struct {
	src  BatchCursor
	keep func(b *Batch, row int32) (bool, error)
}

func (c *batchFilter) NextBatch() (*Batch, error) {
	for {
		b, err := c.src.NextBatch()
		if b == nil || err != nil {
			return nil, err
		}
		live := b.sel[:0]
		for _, r := range b.sel {
			ok, err := c.keep(b, r)
			if err != nil {
				return nil, err
			}
			if ok {
				live = append(live, r)
			}
		}
		b.sel = live
		if len(b.sel) > 0 {
			return b, nil
		}
	}
}

func (c *batchFilter) Close() error { return c.src.Close() }

// batchLimit truncates the stream after n live rows — the batch-granular
// LIMIT pushdown: once satisfied, upstream is never pulled again.
type batchLimit struct {
	src       BatchCursor
	remaining int
}

func (c *batchLimit) NextBatch() (*Batch, error) {
	if c.remaining <= 0 {
		return nil, nil
	}
	b, err := c.src.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	if len(b.sel) > c.remaining {
		b.sel = b.sel[:c.remaining]
	}
	c.remaining -= len(b.sel)
	return b, nil
}

func (c *batchLimit) Close() error { return c.src.Close() }

// ---------------------------------------------------------------------------
// Layout and the row-at-a-time boundary adapter.

// patternGroup is one pattern's column group within a batch layout.
type patternGroup struct {
	pp   *plan.PathPlan
	off  int // first column of the group
	npos int // chain positions (2*edges+1 columns)
	// redVars caches the reduced display name per position (□/− for
	// anonymous), so the adapter builds Reduced bindings without
	// re-deriving names per row.
	redVars []string
}

// batchLayout fixes the column layout of a batch pipeline: per-pattern
// column groups in join order, the first column bound to each named
// variable (for predicate resolution and join probes), per-column element
// kinds, and the edge columns (for the vectorized isomorphism filter).
type batchLayout struct {
	p        *plan.Plan
	st       graph.Stepper
	params   Params
	groups   []patternGroup
	width    int
	kinds    []binding.ElemKind
	varCol   map[string]int
	edgeCols []int
}

func newBatchLayout(p *plan.Plan, st graph.Stepper, params Params, pats []*plan.PathPlan) *batchLayout {
	lay := &batchLayout{p: p, st: st, params: params, varCol: map[string]int{}}
	for _, pp := range pats {
		npos := len(pp.Chain.Nodes) + len(pp.Chain.Edges)
		g := patternGroup{pp: pp, off: lay.width, npos: npos, redVars: make([]string, npos)}
		for j := 0; j < npos; j++ {
			v := chainVar(pp.Chain, j)
			g.redVars[j] = ast.ReducedVar(v)
			kind := binding.NodeElem
			if j%2 == 1 {
				kind = binding.EdgeElem
				lay.edgeCols = append(lay.edgeCols, lay.width+j)
			}
			lay.kinds = append(lay.kinds, kind)
			if !ast.IsAnonVar(v) {
				if _, ok := lay.varCol[v]; !ok {
					lay.varCol[v] = lay.width + j
				}
			}
		}
		lay.width += npos
		lay.groups = append(lay.groups, g)
	}
	return lay
}

// reduced rebuilds one pattern's Reduced binding from a batch row —
// identical to what the engine's Reduce emits for a flat chain: one
// column per position in order, the path over the even/odd columns.
func (lay *batchLayout) reduced(b *Batch, r int32, g *patternGroup) *binding.Reduced {
	red := &binding.Reduced{
		Cols:    make([]binding.ReducedCol, g.npos),
		PathVar: g.pp.Pattern.PathVar,
		Src:     lay.st,
	}
	nodes := make([]graph.ElemIdx, 0, g.npos/2+1)
	edges := make([]graph.ElemIdx, 0, g.npos/2)
	for j := 0; j < g.npos; j++ {
		idx := b.cols[g.off+j][r]
		red.Cols[j] = binding.ReducedCol{Var: g.redVars[j], Kind: lay.kinds[g.off+j], Idx: idx}
		if j%2 == 0 {
			nodes = append(nodes, idx)
		} else {
			edges = append(edges, idx)
		}
	}
	red.Path = graph.IdxPath{Nodes: nodes, Edges: edges}
	return red
}

// row assembles a full result row through the same mergeRow path the row
// pipeline uses, group by group in join order.
func (lay *batchLayout) row(b *Batch, r int32) (*Row, bool) {
	row := &Row{}
	for gi := range lay.groups {
		g := &lay.groups[gi]
		merged, ok := mergeRow(lay.p, g.pp, row, lay.reduced(b, r, g))
		if !ok {
			return nil, false
		}
		row = merged
	}
	return row, true
}

// edgeIso is the vectorized edge-isomorphic check: pairwise distinctness
// over the edge columns (duplicate columns of one repeated edge variable
// collide with themselves, rejecting the row — exactly like the
// id-keyed row check).
func (lay *batchLayout) edgeIso(b *Batch, r int32) bool {
	for i := 1; i < len(lay.edgeCols); i++ {
		v := b.cols[lay.edgeCols[i]][r]
		for _, c := range lay.edgeCols[:i] {
			if b.cols[c][r] == v {
				return false
			}
		}
	}
	return true
}

// colResolver evaluates the postfilter directly over batch columns — no
// row assembly, no id strings. Element identity falls back to the
// store-resolved id (refID), which equals the row resolver's materialized
// id on the shared-store path the batch pipeline requires.
type colResolver struct {
	lay *batchLayout
	b   *Batch
	r   int32
}

func (c colResolver) Graph() graph.Store { return c.lay.st }

func (c colResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := c.lay.params[name]
	return v, ok
}

func (c colResolver) Elem(name string) (binding.Ref, bool) {
	col, ok := c.lay.varCol[name]
	if !ok {
		return binding.Ref{}, false // path variables and unknown names
	}
	return binding.Ref{Kind: c.lay.kinds[col], Idx: c.b.cols[col][c.r]}, true
}

func (c colResolver) Group(name string) ([]binding.Ref, bool) { return nil, false }

// batchRowCursor is the row-at-a-time boundary adapter: it drains batches
// and assembles one *Row per live row, in batch row order — the bridge
// that keeps Rows/ForEach and every downstream consumer byte-identical.
type batchRowCursor struct {
	lay *batchLayout
	src BatchCursor
	b   *Batch
	at  int
}

func (c *batchRowCursor) Next() (*Row, error) {
	for {
		for c.b != nil && c.at < len(c.b.sel) {
			r := c.b.sel[c.at]
			c.at++
			if row, ok := c.lay.row(c.b, r); ok {
				return row, nil
			}
		}
		b, err := c.src.NextBatch()
		if b == nil || err != nil {
			return nil, err
		}
		c.b, c.at = b, 0
	}
}

func (c *batchRowCursor) Close() error { return c.src.Close() }
