package congest

import (
	"fmt"
	"runtime"
	"slices"

	"arbods/internal/graph"
)

// Runner owns the run-scoped state of the simulator — the worker pool, the
// proc Arena, the send slots, and the per-shard side lists and inbox
// buffers — and reuses all of it across Run calls. A one-shot
// congest.Run constructs and discards a transient Runner; a serving-style
// caller that executes many runs (cmd/mdsbench, parameter sweeps, repeated
// requests on the same graph) creates one Runner, passes it to each run
// with WithRunner, and amortizes the whole setup: a rebind allocates
// nothing graph-sized unless the node count grows, and the per-shard
// buffers stay warm even across different graphs.
//
// A Runner may be reused across different graphs (graph-derived state is
// rebuilt on the first run after the graph changes) and across different
// option sets. It is not goroutine-safe: runs sharing a Runner must be
// sequential, and a run that finds the Runner mid-run fails. Close releases
// the worker pool; closing is optional for transient use but polite for
// long-lived Runners (the pool goroutines otherwise persist until the
// Runner is collected).
type Runner struct {
	g       *graph.Graph
	n       int
	workers int // shard layout currently built (0 = none)

	pool     *pool
	poolSize int

	done   []bool
	kinds  [2][]uint8  // per round parity: what each node sent (sendNone, …)
	slots  [2][]Packet // per round parity: the lone broadcast, or a side-list span
	bounds []int32     // degree-weighted shard boundaries, len workers+1
	steps  []stepShard
	arena  Arena

	// Output-typed slabs, cached through any-boxes because the Runner
	// itself is not generic: procSlab holds the engine's []Proc[O] (always
	// reused — procs never escape the run), outSlabO the []O behind
	// Result.Outputs and msgStats the Result.MessageStats map (both reused
	// only under WithRecycledResult, which trades Result immortality for
	// zero graph-sized allocations; see the option's contract). A run with
	// a different output type simply rebuilds the boxes.
	procSlab any
	outSlabO any
	msgStats map[string]MessageStat

	running  bool
	poisoned bool
}

// NewRunner returns an empty Runner; all state is built lazily by the first
// run and reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// Poisoned reports whether a run on this Runner ended in a recovered proc
// panic (ErrProcPanic). A panicking callback may have been interrupted at
// an arbitrary point — mid-arena-carve, mid-slab-write — so although the
// next bind resets every piece of per-run state the engine owns, the
// Runner is conservatively quarantined: RunnerPool.Put discards poisoned
// Runners and checks a replacement in instead. The flag is sticky; a
// caller that understands the risk may keep using the Runner directly
// (transcripts remain correct — bind rebuilds all run state), but pooled
// serving paths should let the pool swap it out.
func (r *Runner) Poisoned() bool { return r.poisoned }

// noteRunError marks the Runner poisoned when err is a recovered proc
// panic. Cheap type assertion instead of errors.As: the engine returns
// *ProcPanicError un-wrapped.
func (r *Runner) noteRunError(err error) {
	if err == nil {
		return
	}
	if _, ok := err.(*ProcPanicError); ok {
		r.poisoned = true
	}
}

// Close releases the worker pool. The Runner must be idle; it may be used
// again afterwards (a fresh pool is built on demand).
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.close()
		r.pool = nil
		r.poolSize = 0
	}
}

// WithRunner executes the run on a reusable Runner instead of transient
// state. See Runner for the reuse and concurrency contract.
func WithRunner(r *Runner) Option { return optionFunc(func(c *config) { c.runner = r }) }

// bind points the Runner at (g, cfg) for one run: the shard layout is
// rebuilt only when the graph or the worker count changed, and everything
// else is reset in place.
func (r *Runner) bind(g *graph.Graph, cfg config) error {
	if r.running {
		return fmt.Errorf("congest: Runner is already mid-run (Runners are not goroutine-safe)")
	}
	r.running = true
	n := g.N()
	if r.g != g {
		r.g = g
		r.n = n
		r.workers = 0 // shard boundaries follow the degrees: rebuild below
	}
	r.done = resized(r.done, n)
	for p := range r.kinds {
		r.kinds[p] = resized(r.kinds[p], n)
		// A slot is read only when the kind byte the same round wrote says
		// it holds something, so slots need no clearing.
		if cap(r.slots[p]) < n {
			r.slots[p] = make([]Packet, n)
		}
		r.slots[p] = r.slots[p][:n]
	}

	workers := cfg.workers
	if workers == 0 {
		// Adaptive: callers that pass WithWorkers(0) let the engine pick.
		// Small graphs stay sequential — the per-round dispatch barriers
		// cost more than the parallelism recovers below the crossover.
		workers = 1
		if n >= adaptiveWorkersMin {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if workers > n {
		workers = n
	}
	if n < parallelStepMin || workers < 1 {
		workers = 1
	}
	if workers != r.workers {
		r.workers = workers
		// Boundaries are cut by cumulative degree (one binary search on the
		// CSR offsets per boundary), so skewed-degree graphs don't serialize
		// on the shard that holds the hubs; see shardBounds. The shards
		// themselves are kept, so their side lists and inbox buffers stay
		// warm across graphs.
		r.bounds = shardBounds(g, workers)
		r.steps = slices.Grow(r.steps[:0], workers)[:workers]
		for w := range r.steps {
			r.steps[w].lo, r.steps[w].hi = int(r.bounds[w]), int(r.bounds[w+1])
		}
	}
	for w := range r.steps {
		s := &r.steps[w]
		s.gathered, s.violations, s.maxEdgeBits = 0, 0, 0
		s.stats = [MaxTags]MessageStat{}
	}

	if workers > 1 && (r.pool == nil || r.poolSize < workers) {
		if r.pool != nil {
			r.pool.close()
		}
		r.pool = newPool(workers)
		r.poolSize = workers
	}
	r.arena.Reset()
	return nil
}

// release marks the run finished. closePool additionally tears the worker
// pool down (transient Runners built inside congest.Run).
func (r *Runner) release(closePool bool) {
	r.running = false
	if closePool {
		r.Close()
	}
}

// resized returns s resized to length n with every element zeroed,
// reusing the backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
