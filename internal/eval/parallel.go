package eval

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"gpml/internal/graph"
)

// budget enforces the search limits across every seed run of one
// Enumerate call, sequential or parallel. The counters are atomic so
// concurrent workers share one global budget, exactly like the single
// global engine did before seeds were split out.
type budget struct {
	maxMatches int64
	maxThreads int64
	matches    atomic.Int64
	threads    atomic.Int64
	// check, when non-nil, is polled periodically by the engines (every
	// cancelCheckInterval edge expansions) so a cancelled context or a
	// closed streaming cursor aborts an in-flight search promptly. It is
	// set once, before any engine runs, and never mutated afterwards, so
	// concurrent workers read it without synchronization.
	check func() error
}

// cancelCheckInterval is how many edge expansions an engine performs
// between cancellation polls: frequent enough that cancellation lands in
// microseconds, rare enough that the poll is invisible in the hot path.
const cancelCheckInterval = 1024

func newBudget(lims Limits) *budget {
	return &budget{
		maxMatches: int64(lims.MaxMatches),
		maxThreads: int64(lims.MaxThreads),
	}
}

// checkCancel polls the cancellation hook; engines call it every
// cancelCheckInterval edge expansions.
func (b *budget) checkCancel() error {
	if b.check == nil {
		return nil
	}
	return b.check()
}

// addMatch accounts one emitted match; it errors when the global match
// budget is exhausted.
func (b *budget) addMatch() error {
	if b.matches.Add(1) > b.maxMatches {
		return &LimitError{What: "match count", Limit: int(b.maxMatches)}
	}
	return nil
}

// addThread accounts one admitted BFS search state.
func (b *budget) addThread() error {
	if b.threads.Add(1) > b.maxThreads {
		return &LimitError{What: "search state", Limit: int(b.maxThreads)}
	}
	return nil
}

// runPool runs queued chunks of work on one worker per entry of homes.
// nchunks[q] is queue q's chunk count and homes[w] worker w's home queue.
// A worker claims its home queue's chunks in order while any remain, then
// steals from the queue with the most chunks left, so a skewed queue does
// not idle the pool; with one queue this is plain dynamic claiming. A
// task error stops all claiming, as does closing stop (nil for never).
// Each worker builds its per-worker state (engine machinery, output
// buffers) once via newWorker. The per-queue per-chunk errors are
// returned for the caller to order.
func runPool(homes, nchunks []int, stop <-chan struct{}, newWorker func() func(q, ci int) error) [][]error {
	errs := make([][]error, len(nchunks))
	next := make([]atomic.Int64, len(nchunks))
	for q, n := range nchunks {
		errs[q] = make([]error, n)
	}
	remaining := func(q int) int {
		return nchunks[q] - min(int(next[q].Load()), nchunks[q])
	}
	claim := func(q int) (int, bool) {
		i := int(next[q].Add(1)) - 1
		return i, i < nchunks[q]
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	for _, home := range homes {
		wg.Add(1)
		go func(home int) {
			defer wg.Done()
			run := newWorker()
			for {
				if failed.Load() {
					return
				}
				select {
				case <-stop: // a nil stop never fires
					return
				default:
				}
				q := home
				ci, ok := claim(q)
				if !ok {
					// Home drained: steal from the fullest queue.
					best, bestRem := -1, 0
					for p := range nchunks {
						if rem := remaining(p); rem > bestRem {
							best, bestRem = p, rem
						}
					}
					if best < 0 {
						return
					}
					if ci, ok = claim(best); !ok {
						continue // lost the race; rescan
					}
					q = best
				}
				if err := run(q, ci); err != nil {
					errs[q][ci] = err
					failed.Store(true)
					return
				}
			}
		}(home)
	}
	wg.Wait()
	return errs
}

// solveEach runs task i for every i < n on up to workers workers sharing
// one queue, one task per chunk, and returns the first error in task
// order — the pool's materializing form, for callers that need every
// result before they go on.
func solveEach(workers, n int, newWorker func() func(i int) error) error {
	errs := runPool(make([]int, min(workers, n)), []int{n}, nil, func() func(q, i int) error {
		run := newWorker()
		return func(_, i int) error { return run(i) }
	})
	for _, err := range errs[0] {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkStarts carves n seed-indexed tasks into contiguous chunks whose
// sizes grow geometrically: the first chunks hold a single seed (the
// ordered gather releases chunk 0 first, so first-row latency stays one
// seed's work), later chunks grow toward 64 so channel and reorder
// bookkeeping amortizes away on many-seed workloads — and small chunks
// near the start double as load balancing. The exponent is capped, not
// the shift: i/workers exceeds 62 on big seed sets and 1<<63 is negative.
func chunkStarts(n, workers int) []int {
	starts := []int{0}
	for at, i := 0, 0; at < n; i++ {
		size := 64
		if e := i / workers; e < 6 {
			size = 1 << e
		}
		if at += size; at > n {
			at = n
		}
		starts = append(starts, at)
	}
	return starts
}

// span is a run of consecutive seed positions [lo, hi).
type span struct{ lo, hi int }

// seedQueues carves the seed positions into the scatter's work queues:
// one queue per partition of pv that holds a seed (one queue when pv is
// nil or unsharded), each a list of chunks cut by chunkStarts, each chunk
// a list of runs of consecutive positions. Pinning a worker to a
// partition keeps its hot expansion loop inside one arena; every queue
// leads with single-seed chunks because it is chunked as if its share of
// the pool worked it alone. Queues are numbered in order of their first
// seed position and homes assigned round-robin over them, so the queue
// holding seed 0 is worked first and first-row latency stays one seed's
// work.
func seedQueues(seeds []int, workers int, pv graph.PartitionedView) (queues [][][]span, homes []int) {
	nparts := 1
	if pv != nil {
		nparts = pv.NumPartitions()
	}
	queueOf := make([]int, nparts) // partition -> queue number + 1; 0 until its first seed
	var byQueue [][]int
	for pos, seed := range seeds {
		p := 0
		if nparts > 1 {
			p = pv.PartitionOf(seed)
		}
		if queueOf[p] == 0 {
			byQueue = append(byQueue, nil)
			queueOf[p] = len(byQueue)
		}
		q := queueOf[p] - 1
		byQueue[q] = append(byQueue[q], pos)
	}
	perQueue := (workers + nparts - 1) / nparts
	for _, list := range byQueue {
		starts := chunkStarts(len(list), perQueue)
		chunks := make([][]span, len(starts)-1)
		all := make([]span, 0, len(list)) // one backing array for the queue's spans
		for ci := range chunks {
			first := len(all)
			for _, pos := range list[starts[ci]:starts[ci+1]] {
				if n := len(all); n > first && all[n-1].hi == pos {
					all[n-1].hi++
				} else {
					all = append(all, span{pos, pos + 1})
				}
			}
			chunks[ci] = all[first:]
		}
		queues = append(queues, chunks)
	}
	homes = make([]int, workers)
	for w := range homes {
		homes[w] = w % len(queues)
	}
	return queues, homes
}

// scatterAhead is how many solved results the gather may hand ahead of
// the consumer: enough to ride out one slow pull, few enough to bound
// the speculative work a LIMIT-cut or abandoned stream pays for.
const scatterAhead = 8

// scatter is the one parallel scatter/gather: a worker pool solves seed
// spans and a gather goroutine emits each span's result in seed-position
// order over a channel. The per-seed pipeline is exact (see stream.go),
// so emitting in seed order reproduces the serial stream. T is the
// emitted unit — a solution list for the row pipeline, a *Batch for the
// batch pipeline.
type scatter[T any] struct {
	// empty reports a result with nothing to emit; the gather skips it.
	empty func(T) bool
	// recycle, when non-nil, takes back a result the consumer will never
	// see (skipped, stopped or drained on close).
	recycle func(T)

	ctx    context.Context
	ch     chan T
	stop   chan struct{}
	err    error // set before ch closes; errStreamStopped is filtered
	closed bool
}

// spanResult is one solved span on its way to the gather.
type spanResult[T any] struct {
	span
	v T
}

// start launches the scatter over seeds on min(cfg.Parallelism, #seeds)
// workers sharing one budget. The row pipeline passes the store's
// PartitionedView as pv to pin workers to partitions; the batch pipeline
// passes nil: a per-chunk batch keeps seed order only when the chunk's
// seeds are contiguous, which only the single queue guarantees. Each
// worker builds its solve function once via newWorker; solve(lo, hi)
// returns the output of seeds[lo:hi].
func (s *scatter[T]) start(ctx context.Context, cfg Config, seeds []int, pv graph.PartitionedView, newWorker func(bud *budget) func(lo, hi int) (T, error)) {
	s.ctx = ctx
	s.ch = make(chan T, scatterAhead)
	s.stop = make(chan struct{})
	bud := newBudget(cfg.Limits.withDefaults())
	bud.check = cancelCheck(ctx, s.stop)
	workers := min(cfg.Parallelism, len(seeds))
	queues, homes := seedQueues(seeds, workers, pv)
	nchunks := make([]int, len(queues))
	for q, chunks := range queues {
		nchunks[q] = len(chunks)
	}
	go func() {
		defer close(s.ch)
		resCh := make(chan spanResult[T], workers)
		var errs [][]error
		go func() {
			errs = runPool(homes, nchunks, s.stop, func() func(q, ci int) error {
				solve := newWorker(bud)
				return func(q, ci int) error {
					for _, sp := range queues[q][ci] {
						v, err := solve(sp.lo, sp.hi)
						if err != nil {
							return err
						}
						select {
						case resCh <- spanResult[T]{sp, v}:
						case <-s.stop:
							s.put(v)
							return errStreamStopped
						}
					}
					return nil
				}
			})
			close(resCh) // errs is visible to the gather once the range ends
		}()
		// Emit in seed-position order; pending holds only spans solved
		// ahead of the emission head. On failure or stop, keep draining so
		// the workers can exit.
		pending := map[int]spanResult[T]{}
		emitAt := 0
		var emitErr error
		for r := range resCh {
			if emitErr != nil {
				s.put(r.v)
				continue
			}
			pending[r.lo] = r
			for head, ok := pending[emitAt]; ok; head, ok = pending[emitAt] {
				delete(pending, emitAt)
				emitAt = head.hi
				if s.empty(head.v) {
					s.put(head.v)
					continue
				}
				if emitErr = s.send(head.v); emitErr != nil {
					s.put(head.v)
					break
				}
			}
		}
		for _, r := range pending {
			s.put(r.v)
		}
		// Report the first error in seed order (matching serial
		// evaluation), identified by the failing chunk's first position.
		firstPos := len(seeds)
		for q, qerrs := range errs {
			for ci, err := range qerrs {
				if err != nil && !errors.Is(err, errStreamStopped) && queues[q][ci][0].lo < firstPos {
					firstPos, emitErr = queues[q][ci][0].lo, err
				}
			}
		}
		if !errors.Is(emitErr, errStreamStopped) {
			s.err = emitErr
		}
	}()
}

// put recycles a result the consumer will never see.
func (s *scatter[T]) put(v T) {
	if s.recycle != nil {
		s.recycle(v)
	}
}

// send hands one result to the consumer, aborting when the stream is
// closed or the context cancelled.
func (s *scatter[T]) send(v T) error {
	select {
	case s.ch <- v:
		return nil
	case <-s.stop:
		return errStreamStopped
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// next returns the next non-empty result; ok is false at exhaustion, when
// err is the scatter's terminal error.
func (s *scatter[T]) next() (v T, ok bool, err error) {
	v, ok = <-s.ch
	if !ok {
		return v, false, s.err
	}
	return v, true, nil
}

// close stops the scatter and blocks until its goroutines have exited
// (draining the channel until the gather closes it), so no goroutine
// outlives the stream.
func (s *scatter[T]) close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.stop)
	for v := range s.ch {
		s.put(v)
	}
}
