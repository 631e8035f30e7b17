package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// run executes one invocation: prepare the inputs, set the server up
// sizes.setups times (keeping the last), measure, check, and return the
// end-to-end metrics, or the per-layer metrics when o.trace is set.
func run(o options, stdout io.Writer) (result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	sh := w.shape()
	st := newStamp(o, sh.clients)

	t0 := time.Now()
	if err := w.prepare(o); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	prep := time.Since(t0)
	var e *env
	setups := make([]float64, 0, o.sizes.setups)
	for s := 0; s < o.sizes.setups; s++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		if e, err = setup(o, w); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.close()
	setupS := prep.Seconds() + median(setups)

	conns := make([]*conn, sh.clients)
	for c := range conns {
		conns[c] = new(conn)
	}
	var next atomic.Int64
	fns := opFuncs{
		busyOnly: sh.perOpInputs,
		prep:     func(c, i int) error { return w.prep(conns[c], phRun, i) },
		op:       func(c, i int) error { return w.op(e.post, conns[c], phRun, i) },
		check:    func(c, i int) error { return w.check(conns[c], phRun, i) },
	}

	var res result
	if !o.trace {
		runtime.GC()
		before, err := e.stats()
		if err != nil {
			return result{}, err
		}
		win := fns.drive(sh.clients, o.dur, &next)
		after, err := e.stats()
		if err != nil {
			return result{}, err
		}
		res = result{Correct: true, Attempted: win.ops, Failed: win.failed}
		if err := guard(sh, diff(before, after), win.ops); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: guard:", err)
			res.Correct = false
		}
		w.release()
		conns = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics = endToEnd(win, setupS, float64(ms.HeapAlloc)/(1<<20))
		if win.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", win.firstErr)
		}
	} else {
		res, err = traced(o, w, e, &next, fns)
		if err != nil {
			return result{}, err
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	printReport(stdout, st, res)
	return res, nil
}

// setup starts a fresh server, loads the workload's resident state and
// runs the untimed warm-up pass.
func setup(o options, w workload) (*env, error) {
	sh := w.shape()
	dir := ""
	if sh.persists {
		var err error
		if dir, err = os.MkdirTemp(o.work, "data-*"); err != nil {
			return nil, err
		}
	}
	e, err := newEnv(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := w.load(e); err != nil {
		e.close()
		return nil, err
	}
	conns := make([]*conn, sh.clients)
	for c := range conns {
		conns[c] = new(conn)
	}
	warmup := o.sizes.warmup
	if sh.perOpInputs {
		warmup = o.sizes.ingestWarmup
	}
	var next atomic.Int64
	errc := make(chan error, sh.clients)
	for c := 0; c < sh.clients; c++ {
		go func(c int) {
			for {
				i := int(next.Add(1) - 1)
				if i >= warmup {
					errc <- nil
					return
				}
				err := w.prep(conns[c], phWarm, i)
				if err == nil {
					err = w.op(e.post, conns[c], phWarm, i)
				}
				if err == nil {
					err = w.check(conns[c], phWarm, i)
				}
				if err != nil {
					errc <- fmt.Errorf("warm-up op %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < sh.clients; c++ {
		if werr := <-errc; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// guard checks that the measured interval took the workload's designed
// path on the server: every op one solve, every graph lookup a hit, the
// solve cache always hit or always missed as designed, one snapshot per
// ingested graph, and no builds, sheds, timeouts or panics.
func guard(sh shape, d delta, ops int64) error {
	if d.builds != 0 || d.rejected != 0 || d.shed != 0 || d.timeouts != 0 || d.canceled != 0 || d.panics != 0 || d.snapshotErrors != 0 {
		return fmt.Errorf("server counters left their designed values: %+v", d)
	}
	if d.solves != ops || d.cacheHits != ops || d.cacheMisses != 0 {
		return fmt.Errorf("%d ops, but the server counted %d solves, %d graph-cache hits, %d misses", ops, d.solves, d.cacheHits, d.cacheMisses)
	}
	hits, misses := int64(0), ops
	if sh.solveCacheHits {
		hits, misses = ops, 0
	}
	if d.solveCacheHits != hits || d.solveCacheMisses != misses {
		return fmt.Errorf("%d ops, but the solve cache counted %d hits and %d misses, want %d and %d", ops, d.solveCacheHits, d.solveCacheMisses, hits, misses)
	}
	saves := int64(0)
	if sh.persists {
		saves = ops
	}
	if d.snapshotSaves != saves {
		return fmt.Errorf("%d ops, but the server wrote %d snapshots, want %d", ops, d.snapshotSaves, saves)
	}
	return nil
}

// endToEnd derives the metrics a user of the server sees.
func endToEnd(win window, setupS, heapMB float64) map[string]metric {
	perOp := func(x float64) float64 {
		if win.ops == 0 {
			return 0
		}
		return x / float64(win.ops)
	}
	return map[string]metric{
		"throughput_ops": {float64(win.ops) / win.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(win.lat, 0.5), "ms"},
		"latency_p90_ms": {percentile(win.lat, 0.9), "ms"},
		"cpu_ms_per_op":  {perOp(float64(win.cpu) / 1e6), "ms"},
		"heap_live_mb":   {heapMB, "MB"},
		"setup_s":        {setupS, "s"},
	}
}
