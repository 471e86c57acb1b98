package eval

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Config tunes evaluation.
type Config struct {
	Limits Limits
	// EdgeIsomorphic enables the edge-isomorphic match mode sketched as a
	// language opportunity in §7.1: "all edges matched across all
	// constituent path patterns in the graph pattern [must] differ from
	// each other". Applied after the join and before the postfilter.
	EdgeIsomorphic bool
	// Parallelism is the number of workers enumerating a path pattern's
	// matches (seed nodes are distributed over the workers and the results
	// merged back in seed order, so output is identical to sequential
	// evaluation). Values below 2 evaluate sequentially.
	Parallelism int
	// DisableAutomaton forces eligible patterns back onto the enumerating
	// DFS/BFS engines; used for A/B comparison and differential testing.
	DisableAutomaton bool
	// DisableBindJoin forces multi-pattern statements back onto the
	// enumerate-everything-then-hash-join pipeline, bypassing the
	// cost-ordered bind-join planner; used for A/B comparison and
	// differential testing. Successful evaluations are identical either
	// way; under tight Limits the pipelines may differ only in whether
	// they hit the budget (bind-join enumerates less).
	DisableBindJoin bool
	// Limit, when positive, ends the stream after that many output rows.
	// In the pull pipeline this is a genuine pushdown: upstream stages
	// never compute work the cut-off rows would have demanded. The rows
	// kept are the first n in streaming (pipeline) order; Eval then
	// presents them in canonical order.
	Limit int
	// StringKeys is the A/B reference mode for the interned execution
	// path: dedup sets and join indexes are keyed by materialized element
	// id strings (the pre-interning encoding) instead of compact binary
	// keys. Results are identical either way (the binary encodings are
	// injective); the option exists for benchmarking the interning win and
	// for differential testing.
	StringKeys bool
	// DisableVectorize forces statements eligible for the batch pipeline
	// (flat chains on one shared store; see batch.go) back onto the
	// row-at-a-time pipeline; used for A/B comparison and differential
	// testing. Successful evaluations are identical either way, row order
	// included; under tight Limits the pipelines may differ only in
	// whether they hit the budget (a LIMIT-bound batch run computes up to
	// one batch of rows ahead of the cut).
	DisableVectorize bool
	// DisableIntersect keeps cyclic join cores on bind-joins even when
	// the cost model favors the worst-case-optimal intersection operator
	// (intersect.go); used for A/B comparison and differential testing.
	// Collected (canonically sorted) results are identical either way.
	DisableIntersect bool
	// Params binds the statement's $name placeholders for this execution.
	// Binding happens here — not in the plan — so one compiled plan (with
	// its memoized automaton) serves any number of argument sets
	// concurrently. Callers should validate the set against the plan first
	// (plan.CheckBind); an unbound placeholder reached during evaluation
	// is a *plan.BindError.
	Params Params
}

// BoundKind discriminates what a result variable is bound to.
type BoundKind uint8

// Binding kinds in result rows.
const (
	BoundNull BoundKind = iota
	BoundNode
	BoundEdge
	BoundGroup
	BoundPath
)

// Bound is the value of one variable in a result row. Node/Edge ids and
// the Path are materialized once, when the row is assembled; Idx keeps
// the element's dense index (relative to the store the variable's pattern
// matched against) so downstream expression evaluation and joins stay
// integer-dense. Group entries stay interned and materialize on render.
type Bound struct {
	Kind  BoundKind
	Node  graph.NodeID
	Edge  graph.EdgeID
	Idx   graph.ElemIdx
	Group []binding.Ref
	Path  graph.Path

	// src resolves interned Group refs for display; set when the row is
	// assembled.
	src graph.Store
}

// GroupIDs materializes the element ids of a group binding in sequence
// order (empty for non-group bindings). Group entries are stored interned;
// this is the supported way to read their ids from a result row.
func (b Bound) GroupIDs() []string {
	if b.Kind != BoundGroup {
		return nil
	}
	out := make([]string, len(b.Group))
	for i, r := range b.Group {
		out[i] = binding.ElemID(b.src, r.Kind, r.Idx)
	}
	return out
}

// String renders the binding for display.
func (b Bound) String() string {
	switch b.Kind {
	case BoundNode:
		return string(b.Node)
	case BoundEdge:
		return string(b.Edge)
	case BoundGroup:
		parts := make([]string, len(b.Group))
		for i, r := range b.Group {
			parts[i] = binding.ElemID(b.src, r.Kind, r.Idx)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case BoundPath:
		return b.Path.String()
	default:
		return "NULL"
	}
}

// rowVar is one bound variable of a row. Rows bind a handful of
// variables, so an association list beats a map: one allocation per row
// and linear scans that stay in cache.
type rowVar struct {
	name string
	b    Bound
}

// Row is one joined match of the whole graph pattern.
type Row struct {
	vars []rowVar
	// Bindings holds one reduced binding per path pattern, indexed by
	// pattern (textual) order. During a join, patterns not yet joined are
	// nil; every completed row has all entries set.
	Bindings []*binding.Reduced
}

// lookup finds a variable's binding by linear scan.
func (r *Row) lookup(name string) (Bound, bool) {
	for i := range r.vars {
		if r.vars[i].name == name {
			return r.vars[i].b, true
		}
	}
	return Bound{}, false
}

// Get returns the binding of a variable in this row.
func (r *Row) Get(name string) (Bound, bool) {
	return r.lookup(name)
}

// Vars lists the bound variables of the row (sorted).
func (r *Row) Vars() []string {
	out := make([]string, 0, len(r.vars))
	for i := range r.vars {
		out = append(out, r.vars[i].name)
	}
	sort.Strings(out)
	return out
}

// Result is the output of evaluating a MATCH statement.
type Result struct {
	Columns []string
	Rows    []*Row
}

// EvalPlan evaluates a compiled plan against a store: each path pattern is
// solved separately (§6.5 "Multiple patterns"), results are joined on
// shared singleton variables, and the final WHERE postfilter is applied.
func EvalPlan(s graph.Store, p *plan.Plan, cfg Config) (*Result, error) {
	stores := make([]graph.Store, len(p.Paths))
	for i := range stores {
		stores[i] = s
	}
	return EvalPlanOn(stores, p, cfg)
}

// EvalPlanOn evaluates each path pattern of the plan against its own store
// (stores[i] for pattern i) and joins the results — the "queries on
// multiple graphs in a single concatenated MATCH" language opportunity of
// §7.1. Shared singleton variables join across graphs by element
// identifier, the natural reading when the graphs are views sharing keys
// (e.g. two SQL/PGQ views over the same tables). Property lookups in the
// postfilter resolve against the first store whose pattern declares the
// variable.
func EvalPlanOn(stores []graph.Store, p *plan.Plan, cfg Config) (*Result, error) {
	cur, err := StreamPlanOn(context.Background(), stores, p, cfg)
	if err != nil {
		return nil, err
	}
	return Collect(cur, p)
}

// MatchPattern runs the full single-pattern pipeline: enumerate (DFS or
// BFS), reduce, deduplicate, then apply the selector — exactly the §6
// stage order.
func MatchPattern(s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.Reduced, error) {
	raw, err := Enumerate(s, pp, cfg)
	if err != nil {
		return nil, err
	}
	reduced := make([]*binding.Reduced, len(raw))
	for i, b := range raw {
		reduced[i] = b.Reduce()
	}
	var deduped []*binding.Reduced
	if cfg.StringKeys {
		deduped = binding.DedupStrings(reduced)
	} else {
		deduped = binding.Dedup(reduced)
	}
	selected := ApplySelector(pp.Pattern.Selector, deduped)
	binding.SortStable(selected)
	return selected, nil
}

// Enumerate produces the raw (annotated) path bindings of one pattern. It
// seeds one engine run per candidate start node — from the store's label
// index when the plan proved a seed label, a full scan otherwise — and
// runs them serially on the caller's goroutine: cfg.Parallelism applies
// to the streaming pipeline only (see parallel.go). Search limits are
// shared across all seed runs.
func Enumerate(s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.PathBinding, error) {
	st := graph.AsStepper(s)
	bud := newBudget(cfg.Limits.withDefaults())
	var out []*binding.PathBinding
	run := seedRunner(st, pp, cfg, bud, func(b *binding.PathBinding) error {
		out = append(out, b)
		return nil
	})
	var err error
	forEachSeed(st, pp, func(i int) bool {
		err = run(i)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachSeed streams the candidate start node indices in iteration
// order. When the plan proved seed labels, the cheapest one (by the
// store's label counts) restricts the candidates; the engines re-check
// the full node pattern at each seed, so any sound label works.
func forEachSeed(st graph.Stepper, pp *plan.PathPlan, f func(i int) bool) {
	if label, ok := graph.CheapestNodeLabel(st, pp.SeedLabels); ok {
		st.NodesWithLabelIdx(label, f)
		return
	}
	// Scan the full index span and skip dead holes: on overlay epochs and
	// compacted bases, NumNodes counts live nodes but indices run sparse
	// in [0, span).
	for i, n := 0, st.NodeIndexSpan(); i < n; i++ {
		if st.NodeByIndex(i) == nil {
			continue
		}
		if !f(i) {
			return
		}
	}
}

// seedNodes materializes the candidate seed indices, for distribution
// over the parallel worker pool.
func seedNodes(st graph.Stepper, pp *plan.PathPlan) []int {
	var out []int
	forEachSeed(st, pp, func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// seedRunner returns a function running one engine pass per seed node
// index, selected by EngineFor: the automaton engine when the plan proved
// the pattern eligible (product search plus replay, reused across seeds),
// the level-synchronous BFS engine for the remaining selector-bounded
// patterns, and the backtracking DFS machine otherwise. All engines run
// on the store's indexed Stepper view (memoized per store, shared by
// worker pools).
func seedRunner(st graph.Stepper, pp *plan.PathPlan, cfg Config, bud *budget, emit func(*binding.PathBinding) error) func(int) error {
	engine, _ := EngineFor(pp, cfg)
	switch engine {
	case EngineAutomaton:
		return newAutoEngine(st, pp, cfg, bud, emit).run
	case EngineBFS:
		return func(seed int) error {
			return runBFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, pp.Pattern.Selector, seed, bud, emit)
		}
	default:
		return newDFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, bud, emit).run
	}
}

// sharedVars lists the pattern's variables usable as equi-join keys with
// the already-joined prefix: singleton, non-path, and already bound
// (statically guaranteed to be unconditional singletons, §4.6).
func sharedVars(p *plan.Plan, pp *plan.PathPlan, bound map[string]bool) []string {
	var shared []string
	for _, v := range pp.Vars {
		if p.JoinableVar(v) && bound[v] {
			shared = append(shared, v)
		}
	}
	return shared
}

// joinPattern hash-joins one pattern's solutions into the accumulated
// rows; with no shared variables it degenerates to a cross product.
// byIdx selects the compact index-based join keys (sound only when every
// pattern runs on one shared store).
func joinPattern(p *plan.Plan, pp *plan.PathPlan, rows []*Row, solutions []*binding.Reduced, shared []string, byIdx bool) []*Row {
	index := map[string][]*binding.Reduced{}
	var buf []byte
	for _, sol := range solutions {
		buf = appendJoinKeyOfSolution(buf[:0], sol, shared, byIdx)
		index[string(buf)] = append(index[string(buf)], sol)
	}
	var next []*Row
	for _, row := range rows {
		buf = appendJoinKeyOfRow(buf[:0], row, shared, byIdx)
		for _, sol := range index[string(buf)] {
			merged, ok := mergeRow(p, pp, row, sol)
			if !ok {
				continue
			}
			next = append(next, merged)
		}
	}
	return next
}

// markBound records the variables a joined pattern binds.
func markBound(bound map[string]bool, pp *plan.PathPlan) {
	for _, v := range pp.Vars {
		bound[v] = true
	}
	if pv := pp.Pattern.PathVar; pv != "" {
		bound[pv] = true
	}
}

// Join-key encodings. The compact form (byIdx) packs one fixed-width
// component per shared variable — a kind byte (0 node, 1 edge) followed
// by the 4-byte big-endian dense index — with a single 0xFF byte marking
// an unbound conditional singleton. Parsing is determined left to right
// (a component's first byte is 0, 1 or 0xFF and fixes its width), so the
// encoding is prefix-free and two distinct binding tuples can never
// concatenate to the same key. It is only sound when probe and build side
// index against the same store; multi-graph joins (and the StringKeys
// reference mode) use the materialized string form, which keeps the
// pre-interning length-prefixed encoding: "<len(id)><kind-tag><id>" per
// component, '?' for unbound.

const unboundKeyByte = 0xFF

// appendUnbound marks an unbound conditional singleton: 0xFF in the
// compact form (no bound component starts with it), '?' in the string
// form (bound components start with a digit) — the pre-interning byte.
func appendUnbound(buf []byte, byIdx bool) []byte {
	if byIdx {
		return append(buf, unboundKeyByte)
	}
	return append(buf, '?')
}

// appendIdxComponent appends one compact bound component.
func appendIdxComponent(b []byte, kind binding.ElemKind, idx graph.ElemIdx) []byte {
	return append(b, byte(kind), byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
}

// appendStringComponent appends one materialized bound component.
func appendStringComponent(b []byte, kind binding.ElemKind, id string) []byte {
	b = strconv.AppendInt(b, int64(len(id)), 10)
	b = append(b, kindTag(kind))
	return append(b, id...)
}

// AppendSolutionJoinKey exposes the live join-key encoding to experiment
// tooling (benchgen S5 measures it against the retired string encoding);
// it is appendJoinKeyOfSolution verbatim, so the A/B always measures
// exactly what the engine runs.
func AppendSolutionJoinKey(buf []byte, sol *binding.Reduced, shared []string, byIdx bool) []byte {
	return appendJoinKeyOfSolution(buf, sol, shared, byIdx)
}

// appendJoinKeyOfSolution appends a pattern solution's hash key over the
// shared join variables to buf.
func appendJoinKeyOfSolution(buf []byte, sol *binding.Reduced, shared []string, byIdx bool) []byte {
	for _, v := range shared {
		ref, ok := sol.Singleton(v)
		switch {
		case !ok:
			buf = appendUnbound(buf, byIdx)
		case byIdx:
			buf = appendIdxComponent(buf, ref.Kind, ref.Idx)
		default:
			buf = appendStringComponent(buf, ref.Kind, sol.RefID(ref))
		}
	}
	return buf
}

func kindTag(k binding.ElemKind) byte {
	if k == binding.NodeElem {
		return 'n'
	}
	return 'e'
}

// appendJoinKeyOfRow appends the matching probe key of an accumulated row
// to buf.
func appendJoinKeyOfRow(buf []byte, row *Row, shared []string, byIdx bool) []byte {
	for _, v := range shared {
		b, _ := row.lookup(v)
		switch {
		case b.Kind != BoundNode && b.Kind != BoundEdge:
			buf = appendUnbound(buf, byIdx)
		case byIdx && b.Kind == BoundNode:
			buf = appendIdxComponent(buf, binding.NodeElem, b.Idx)
		case byIdx:
			buf = appendIdxComponent(buf, binding.EdgeElem, b.Idx)
		case b.Kind == BoundNode:
			buf = appendStringComponent(buf, binding.NodeElem, string(b.Node))
		default:
			buf = appendStringComponent(buf, binding.EdgeElem, string(b.Edge))
		}
	}
	return buf
}

// mergeRow extends a partial row with one pattern solution, checking the
// implicit equi-joins on shared unconditional singletons. This is where a
// match's element id strings are materialized — once per assembled row,
// never during search. The equi-join check compares materialized ids, the
// semantics multi-graph evaluation defines joins by; on a shared store the
// ids are in bijection with the indices, so the comparison is identical.
func mergeRow(p *plan.Plan, pp *plan.PathPlan, row *Row, sol *binding.Reduced) (*Row, bool) {
	vars := make([]rowVar, len(row.vars), len(row.vars)+len(pp.Vars)+1)
	copy(vars, row.vars)
	for _, name := range pp.Vars {
		info := p.Var(name)
		if info == nil {
			continue
		}
		var b Bound
		switch {
		case info.Kind == plan.VarPath:
			continue // handled below via PathVar
		case info.Group:
			b = Bound{Kind: BoundGroup, Group: sol.Group(name), src: sol.Src}
		default:
			ref, ok := sol.Singleton(name)
			if !ok {
				b = Bound{Kind: BoundNull} // conditional singleton, unbound
			} else if ref.Kind == binding.NodeElem {
				b = Bound{Kind: BoundNode, Node: graph.NodeID(sol.RefID(ref)), Idx: ref.Idx, src: sol.Src}
			} else {
				b = Bound{Kind: BoundEdge, Edge: graph.EdgeID(sol.RefID(ref)), Idx: ref.Idx, src: sol.Src}
			}
		}
		prevAt := -1
		for i := range vars {
			if vars[i].name == name {
				prevAt = i
				break
			}
		}
		if prevAt >= 0 {
			// Implicit equi-join across path patterns (static analysis
			// guarantees these are unconditional singletons).
			prev := vars[prevAt].b
			if prev.Kind != b.Kind || prev.Node != b.Node || prev.Edge != b.Edge {
				return nil, false
			}
			continue
		}
		vars = append(vars, rowVar{name, b})
	}
	if pv := pp.Pattern.PathVar; pv != "" {
		vars = append(vars, rowVar{pv, Bound{Kind: BoundPath, Path: sol.Path.Materialize(sol.Src), src: sol.Src}})
	}
	bindings := make([]*binding.Reduced, len(p.Paths))
	copy(bindings, row.Bindings)
	bindings[pp.Index] = sol
	return &Row{vars: vars, Bindings: bindings}, true
}

// rowEdgeIsomorphic reports whether every edge occurrence across the row's
// path bindings is distinct (§7.1's edge-isomorphic match mode). Distinct-
// ness is by element id, which multi-graph evaluation defines identity by.
func rowEdgeIsomorphic(row *Row) bool {
	seen := map[string]struct{}{}
	for _, rb := range row.Bindings {
		for i, col := range rb.Cols {
			if col.Kind != binding.EdgeElem {
				continue
			}
			id := rb.ColID(i)
			if _, dup := seen[id]; dup {
				return false
			}
			seen[id] = struct{}{}
		}
	}
	return true
}

// rowResolver evaluates the postfilter over a joined row. In multi-graph
// evaluation (EvalPlanOn) varGraph routes property lookups to the store
// that declared each variable; Graph() returns the primary store for
// expressions that are not variable-specific.
type rowResolver struct {
	g        graph.Store
	varGraph map[string]graph.Store
	row      *Row
	params   Params
}

// ParamValue resolves a $name placeholder from the execution's bound set.
func (r rowResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.params[name]
	return v, ok
}

func (r rowResolver) Graph() graph.Store { return r.g }

// GraphFor routes per-variable element lookups in multi-graph evaluation.
func (r rowResolver) GraphFor(name string) graph.Store {
	if r.varGraph == nil {
		return r.g
	}
	if g, ok := r.varGraph[name]; ok {
		return g
	}
	return r.g
}

func (r rowResolver) Elem(name string) (binding.Ref, bool) {
	b, ok := r.row.lookup(name)
	if !ok {
		return binding.Ref{}, false
	}
	var kind binding.ElemKind
	switch b.Kind {
	case BoundNode:
		kind = binding.NodeElem
	case BoundEdge:
		kind = binding.EdgeElem
	default:
		return binding.Ref{}, false
	}
	// The row's index is relative to the store whose pattern bound the
	// variable (join-order dependent); lookups route to the variable's
	// declaring store (GraphFor). When the two differ — multi-graph
	// evaluation, or a caller-supplied projection store — the index is
	// not portable, so re-intern the materialized id against the target.
	// An id the target does not contain resolves out of range: property
	// reads yield NULL, exactly like the pre-interning id lookup did.
	target := graphOf(r, name)
	idx := b.Idx
	if target != b.src && b.src != nil {
		var ok2 bool
		if kind == binding.NodeElem {
			idx, ok2 = target.InternNode(b.Node)
		} else {
			idx, ok2 = target.InternEdge(b.Edge)
		}
		if !ok2 {
			idx = ^graph.ElemIdx(0)
		}
	}
	return binding.Ref{Kind: kind, Idx: idx}, true
}

// ElemID serves element identity straight from the row's materialized
// ids (multi-graph comparisons are defined over ids, and the id is exact
// even when the routed store lacks the element).
func (r rowResolver) ElemID(name string) (string, bool) {
	b, ok := r.row.lookup(name)
	if !ok {
		return "", false
	}
	switch b.Kind {
	case BoundNode:
		return string(b.Node), true
	case BoundEdge:
		return string(b.Edge), true
	default:
		return "", false
	}
}

func (r rowResolver) Group(name string) ([]binding.Ref, bool) {
	b, ok := r.row.lookup(name)
	if !ok || b.Kind != BoundGroup {
		return nil, false
	}
	return b.Group, true
}

// RowResolver exposes a row as an expression resolver for host-language
// projections (SQL/PGQ COLUMNS, GQL RETURN).
func RowResolver(g graph.Store, row *Row) Resolver { return rowResolver{g: g, row: row} }

// RowResolverWith is RowResolver under a bound parameter set, for
// host-language projections over parameterized queries.
func RowResolverWith(g graph.Store, row *Row, params Params) Resolver {
	return rowResolver{g: g, row: row, params: params}
}
