package fragment

import (
	"sync"
	"time"

	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// This file implements the bounded worker pool that fans hole resolution
// out across goroutines. The engine's results must stay byte-identical
// to sequential execution, so parallelism is strictly two-phase:
//
//  1. Phase A (parallel): the pool resolves every hole id that the
//     sequential algorithm would resolve — for transitive walks
//     (Temporalize, result materialization) that is the closure of ids
//     reachable through resolved fillers, which is the same id SET in
//     any resolution order — and memoizes the results.
//  2. Phase B (sequential): the unchanged sequential assembly runs with
//     a resolver that reads the memo, so document order, the
//     resolve-once-per-filler-id rule and the output bytes are exactly
//     those of sequential execution.
//
// Cancellation is errgroup-style but adapted to this engine's panic
// discipline: a resolver that trips its budget.Budget panics with the
// *budget.ResourceError; the pool captures the first panic, stops
// handing out work, drains its workers, and re-raises the panic on the
// CALLING goroutine — so the engine boundary's existing containment
// (Query.eval's recover) sees it exactly as if the sequential walk had
// tripped. The Budget's counters are atomic, so concurrent workers
// charge it without losing units.

// task is one queued hole resolution; enq feeds the wait histogram.
type task struct {
	id  int
	enq time.Time
}

// pool is one fan-out: a fixed set of workers over a shared queue with a
// memo of completed resolutions.
type pool struct {
	resolve HoleResolver
	// expand: scan each resolution's fillers for nested hole ids and
	// enqueue them (transitive closure); off for flat id sets.
	expand bool
	wait   *obs.Histogram
	stats  *obs.EvalStats

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []task
	queued  map[int]bool // ever enqueued: the closure visits each id once
	memo    map[int][]*xmldom.Node
	pending int // enqueued but not yet completed
	aborted any // first captured panic value
	closed  bool
}

func newPool(resolve HoleResolver, expand bool, wait *obs.Histogram, stats *obs.EvalStats) *pool {
	p := &pool{
		resolve: resolve,
		expand:  expand,
		wait:    wait,
		stats:   stats,
		queued:  make(map[int]bool),
		memo:    make(map[int][]*xmldom.Node),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// run resolves ids (plus, when expanding, their transitive closure) on
// parallelism workers and blocks until every task completed or one
// panicked. All workers have exited when run returns — the pool leaks no
// goroutines even on abort. A captured panic is re-raised on the caller.
func (p *pool) run(ids []int, parallelism int) {
	if len(ids) == 0 {
		return
	}
	p.mu.Lock()
	now := time.Now()
	for _, id := range ids {
		if p.queued[id] {
			continue
		}
		p.queued[id] = true
		p.queue = append(p.queue, task{id: id, enq: now})
		p.pending++
	}
	initial := p.pending
	p.mu.Unlock()
	// a flat set never grows, so extra workers would only idle; an
	// expanding closure can outgrow its initial frontier, so it keeps the
	// full complement
	if !p.expand && parallelism > initial {
		parallelism = initial
	}
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for i := 0; i < parallelism; i++ {
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.mu.Lock()
	for p.pending > 0 && p.aborted == nil {
		p.cond.Wait()
	}
	p.closed = true
	p.cond.Broadcast()
	aborted := p.aborted
	p.mu.Unlock()
	wg.Wait()
	if aborted != nil {
		panic(aborted)
	}
}

// work is one worker's loop: pop, resolve, memoize, expand.
func (p *pool) work() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && p.aborted == nil {
			p.cond.Wait()
		}
		if p.closed || p.aborted != nil {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		p.wait.Observe(time.Since(t.enq))
		p.stats.AddParallelTasks(1)
		els, pan := p.safeResolve(t.id)

		p.mu.Lock()
		if pan != nil {
			if p.aborted == nil {
				p.aborted = pan
			}
		} else {
			p.memo[t.id] = els
			if p.expand {
				now := time.Now()
				for _, nested := range holeIDsDeep(els) {
					if p.queued[nested] {
						continue
					}
					p.queued[nested] = true
					p.queue = append(p.queue, task{id: nested, enq: now})
					p.pending++
				}
			}
		}
		p.pending--
		if p.pending == 0 || p.aborted != nil || len(p.queue) > 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// safeResolve runs the resolver, converting a panic (budget trip or bug)
// into a value so the worker can hand it to the pool instead of dying.
func (p *pool) safeResolve(id int) (els []*xmldom.Node, pan any) {
	defer func() {
		if r := recover(); r != nil {
			pan = r
		}
	}()
	return p.resolve(id), nil
}

// memoResolver serves phase-B assembly from the completed memo. The pool
// has been joined by then, so the map is read single-threaded; ids
// outside the memo (impossible for a correctly computed closure, but
// cheap to guard) fall through to the inner resolver.
func (p *pool) memoResolver() HoleResolver {
	return func(holeID int) []*xmldom.Node {
		if els, ok := p.memo[holeID]; ok {
			return els
		}
		return p.resolve(holeID)
	}
}

// holeIDsDeep collects the ids of every <hole> at any depth of els, in
// document order — the hole frontier a resolved filler set exposes.
func holeIDsDeep(els []*xmldom.Node) []int {
	var out []int
	for _, el := range els {
		el.Walk(func(n *xmldom.Node) bool {
			if IsHole(n) {
				if id, err := HoleID(n); err == nil {
					out = append(out, id)
				}
			}
			return true
		})
	}
	return out
}

// ResolveIDs resolves a flat id set on a bounded worker pool and returns
// the memo. It is the log-scan access path's fan-out: its hole-id set
// read issues one independent store pass per id, so the passes run
// concurrently and assembly reads the memo in the original order.
// parallelism <= 1 or a single id degrades to an inline loop. Panics
// from the resolver (budget trips) re-raise on the caller once all
// workers have exited.
func ResolveIDs(ids []int, resolve HoleResolver, parallelism int, wait *obs.Histogram, stats *obs.EvalStats) map[int][]*xmldom.Node {
	if parallelism <= 1 || len(ids) < 2 {
		memo := make(map[int][]*xmldom.Node, len(ids))
		for _, id := range ids {
			if _, ok := memo[id]; !ok {
				memo[id] = resolve(id)
			}
		}
		return memo
	}
	p := newPool(resolve, false, wait, stats)
	p.run(ids, parallelism)
	return p.memo
}

// Prefetch resolves, in parallel, the transitive hole closure reachable
// from roots — exactly the id set the sequential recursive walk
// (FillHoles, for Temporalize and for result materialization) would
// resolve, since that set is independent of resolution order — and
// returns a memoized resolver for the sequential assembly phase. With
// parallelism <= 1 or no holes it returns the inner resolver unchanged.
func Prefetch(roots []*xmldom.Node, resolve HoleResolver, parallelism int, wait *obs.Histogram, stats *obs.EvalStats) HoleResolver {
	if parallelism <= 1 {
		return resolve
	}
	ids := holeIDsDeep(roots)
	if len(ids) == 0 {
		return resolve
	}
	p := newPool(resolve, true, wait, stats)
	p.run(ids, parallelism)
	return p.memoResolver()
}
