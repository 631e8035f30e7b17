package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arbods"
	"arbods/internal/server"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span that made the call (-1 for an op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.add(op, parent, name, now, now)
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfMS returns, per span name and op, the span's self time in ms: its
// duration minus the part its children cover.
func (t *tracer) selfMS() map[string]map[int]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]map[int]float64)
	for _, s := range t.spans {
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]float64)
		}
		out[s.Name][s.Op] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

func (t *tracer) write(path string, st stamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(st)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the per-layer run. Its measured interval alternates untraced
// and traced quarters (the difference of their medians is the tracing
// overhead); then sizes.replay ops are replayed one layer at a time
// through each module's public functions, each call a span.
func traced(o options, w workload, e *env, next *atomic.Int64, fns opFuncs) (result, error) {
	sh := w.shape()
	tr := &tracer{epoch: time.Now()}
	spannedFns := fns
	spannedFns.op = func(c, i int) error {
		root := tr.begin(i, -1, "op")
		h := tr.begin(i, root, "http")
		err := fns.op(c, i)
		tr.end(h)
		tr.end(root)
		return err
	}
	before, err := e.stats()
	if err != nil {
		return result{}, err
	}
	var plain, spanned window
	for q := 0; q < 4; q++ {
		runtime.GC()
		if q%2 == 0 {
			plain.merge(fns.drive(sh.clients, o.dur/4, next))
		} else {
			spanned.merge(spannedFns.drive(sh.clients, o.dur/4, next))
		}
	}
	after, err := e.stats()
	if err != nil {
		return result{}, err
	}
	d := diff(before, after)
	res := result{Correct: true, Attempted: plain.ops + spanned.ops, Failed: plain.failed + spanned.failed}
	if err := guard(sh, d, res.Attempted); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: guard:", err)
		res.Correct = false
	}
	for _, win := range []window{plain, spanned} {
		if win.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", win.firstErr)
		}
	}

	rp, err := replay(o, w, e, tr, int(next.Load()))
	if err != nil {
		return result{}, err
	}
	res.Attempted += int64(o.sizes.replay)
	res.Failed += rp.failed
	var lat server.Metrics
	if err := e.getJSON("/v1/metrics", &lat); err != nil {
		return result{}, err
	}

	self := tr.selfMS()
	perOp := func(x float64) float64 {
		if plain.ops == 0 {
			return 0
		}
		return x / float64(plain.ops)
	}
	mean := func(h server.HistogramSnapshot) float64 {
		if h.Count == 0 {
			return 0
		}
		return float64(h.SumMicros) / float64(h.Count) / 1e3
	}
	p50Plain, p50Spanned := percentile(plain.lat, 0.5), percentile(spanned.lat, 0.5)
	overhead := 0.0
	if p50Plain > 0 {
		overhead = (p50Spanned - p50Plain) / p50Plain * 100
	}
	var rounds []float64
	for _, s := range tr.spans {
		if s.Name == "congest.round" {
			rounds = append(rounds, float64(s.End-s.Start)/1e6)
		}
	}
	m := map[string]metric{
		"server.handler_ms":             {medianOf(self["server.handler"]), "ms"},
		"server.transport_ms":           {medianDiff(self["server.roundtrip"], self["server.handler"]), "ms"},
		"server.response_bytes":         {median(rp.respBytes), "bytes"},
		"server.queue_ms":               {mean(lat.QueueMicros), "ms"},
		"server.solve_phase_ms":         {mean(lat.SolveMicros), "ms"},
		"server.solve_cache.hit_ratio":  {ratio(d.solveCacheHits, d.solveCacheMisses), "ratio"},
		"server.graph_cache.hit_ratio":  {ratio(d.cacheHits, d.cacheMisses), "ratio"},
		"server.builds":                 {float64(d.builds), "count"},
		"graph.decode_text_ms":          {medianOf(self["graph.decode_text"]), "ms"},
		"graph.hash_ms":                 {medianOf(self["graph.hash"]), "ms"},
		"graph.degeneracy_ms":           {medianOf(self["graph.degeneracy"]), "ms"},
		"graph.snapshot_ms":             {medianOf(self["graph.snapshot"]), "ms"},
		"graph.upload_bytes":            {median(rp.uploadBytes), "bytes"},
		"mds.solve_ms":                  {medianOf(self["mds.solve"]), "ms"},
		"congest.echo_ms":               {medianOf(self["congest.echo"]), "ms"},
		"mds.algo_ms":                   {medianDiff(self["mds.solve"], self["congest.echo"]), "ms"},
		"congest.rounds":                {median(rp.rounds), "count"},
		"congest.messages":              {median(rp.messages), "count"},
		"congest.bits":                  {median(rp.bits), "count"},
		"congest.round_p50_ms":          {median(rounds), "ms"},
		"congest.round_max_ms":          {percentile(rounds, 1), "ms"},
		"congest.solve_allocs":          {rp.allocs, "count"},
		"mds.detach_ms":                 {medianOf(self["mds.detach"]), "ms"},
		"receipt.build_ms":              {medianOf(self["receipt.build"]), "ms"},
		"encode.response_ms":            {medianOf(self["encode.response"]), "ms"},
		"runtime.alloc_mb_per_op":       {perOp(float64(plain.mem.allocB) / (1 << 20)), "MB"},
		"runtime.gc_per_op":             {perOp(float64(plain.mem.gcs)), "count"},
		"runtime.gc_pause_ms":           {perOp(float64(plain.mem.pauseNs) / 1e6), "ms"},
		"trace.overhead_pct":            {overhead, "%"},
		"trace.untraced_latency_p50_ms": {p50Plain, "ms"},
		"trace.traced_latency_p50_ms":   {p50Spanned, "ms"},
	}
	res.Metrics = m

	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path, newStamp(o, sh.clients)); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// replayed collects the per-op values of the replay that are not spans.
type replayed struct {
	failed                 int64
	respBytes, uploadBytes []float64
	rounds, messages, bits []float64
	allocs                 float64
}

// replayer re-runs ops of the workload, each through every layer it
// crosses, in call order: graph decode, hash, degeneracy and snapshot (the
// upload path), the engine solve on a warm Runner with the server's worker
// count, detach, receipt and response encoding, the same solve again
// under a round observer, a broadcast echo carrying the solve's per-round
// traffic (the engine's floor), and finally the op itself straight into
// the handler and then over the loopback listener.
type replayer struct {
	w       workload
	e       *env
	tr      *tracer
	dir     string // snapshot target
	workers int
	solver  *arbods.Runner
	echoer  *arbods.Runner
	slab    []echoProc
	c       conn
	last    lastSolve
	replayed
}

func replay(o options, w workload, e *env, tr *tracer, firstOp int) (replayed, error) {
	st, err := e.stats()
	if err != nil {
		return replayed{}, err
	}
	dir, err := os.MkdirTemp(o.work, "replay-*")
	if err != nil {
		return replayed{}, err
	}
	defer os.RemoveAll(dir)
	rp := &replayer{w: w, e: e, tr: tr, dir: dir, workers: st.PoolWorkers,
		solver: arbods.NewRunner(), echoer: arbods.NewRunner()}
	defer rp.solver.Close()
	defer rp.echoer.Close()

	// Warm both Runners on the first case's graph, untimed.
	rc, err := w.replayCase(0)
	if err != nil {
		return replayed{}, err
	}
	g, err := arbods.DecodeGraph(bytes.NewReader(rc.body))
	if err != nil {
		return replayed{}, err
	}
	alpha := rc.alpha
	if alpha == 0 {
		_, alpha = arbods.Degeneracy(g)
	}
	var perRound []int64
	_, err = arbods.WeightedDeterministic(g, alpha, eps, rp.opts(rc.seed,
		arbods.WithRoundObserver(func(rs arbods.RoundStat) { perRound = append(perRound, rs.Messages) }))...)
	if err != nil {
		return replayed{}, err
	}
	if err := rp.echo(g, rp.senders(g, perRound)); err != nil {
		return replayed{}, err
	}

	for k := 0; k < o.sizes.replay; k++ {
		if err := rp.one(k, firstOp+k); err != nil {
			rp.failed++
			fmt.Fprintf(os.Stderr, "perfbench: replay op %d: %v\n", k, err)
		}
	}
	rp.allocs, err = rp.solveAllocs()
	return rp.replayed, err
}

func (rp *replayer) opts(seed uint64, extra ...arbods.Option) []arbods.Option {
	return append([]arbods.Option{arbods.WithSeed(seed), arbods.WithRunner(rp.solver),
		arbods.WithWorkers(rp.workers), arbods.WithRecycledResult()}, extra...)
}

// one replays op k (the workload's op 2k) as trace op id op.
func (rp *replayer) one(k, op int) error {
	rc, err := rp.w.replayCase(k)
	if err != nil {
		return err
	}
	tr := rp.tr
	root := tr.begin(op, -1, "replay")
	defer tr.end(root)
	call := func(name string, fn func() error) error {
		s := tr.begin(op, root, name)
		err := fn()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var g *arbods.Graph
	if err := call("graph.decode_text", func() (err error) {
		g, err = arbods.DecodeGraph(bytes.NewReader(rc.body))
		return err
	}); err != nil {
		return err
	}
	rp.uploadBytes = append(rp.uploadBytes, float64(len(rc.body)))
	var id string
	if err := call("graph.hash", func() error {
		var buf bytes.Buffer
		if err := arbods.EncodeGraph(&buf, g); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		id = "sha256:" + hex.EncodeToString(sum[:])
		return nil
	}); err != nil {
		return err
	}
	if id != rc.id {
		return fmt.Errorf("content hash %s, want %s", id, rc.id)
	}
	var degen int
	call("graph.degeneracy", func() error { _, degen = arbods.Degeneracy(g); return nil })
	if err := call("graph.snapshot", func() error { return snapshot(rp.dir, id, g) }); err != nil {
		return err
	}
	alpha := rc.alpha
	if alpha == 0 {
		alpha = degen
	}

	var rep *arbods.Report
	if err := call("mds.solve", func() (err error) {
		rep, err = arbods.WeightedDeterministic(g, alpha, eps, rp.opts(rc.seed)...)
		return err
	}); err != nil {
		return err
	}
	call("mds.detach", func() error { rep = rep.Detach(); return nil })
	var receipt *arbods.Receipt
	call("receipt.build", func() error { receipt = arbods.BuildReceipt(g, rep); return nil })
	if err := checkReceipt(receipt, rc.want); err != nil {
		return err
	}
	rp.rounds = append(rp.rounds, float64(receipt.Rounds))
	rp.messages = append(rp.messages, float64(receipt.Messages))
	rp.bits = append(rp.bits, float64(receipt.TotalBits))
	if err := call("encode.response", func() error {
		resp := server.SolveResponse{
			Graph:    server.GraphInfo{ID: id, Nodes: g.N(), Edges: g.M(), Alpha: alpha},
			CacheHit: true, Seed: rc.seed, Receipt: receipt,
		}
		if rc.includeDS {
			resp.DS = rep.DS
		}
		_, err := json.MarshalIndent(resp, "", "  ")
		return err
	}); err != nil {
		return err
	}
	observed := tr.begin(op, root, "mds.solve_observed")
	var perRound []int64
	prev := time.Now()
	rep2, err := arbods.WeightedDeterministic(g, alpha, eps, rp.opts(rc.seed, arbods.WithRoundObserver(func(rs arbods.RoundStat) {
		now := time.Now()
		tr.add(op, observed, "congest.round", prev, now)
		prev = now
		perRound = append(perRound, rs.Messages)
	}))...)
	tr.end(observed)
	if err != nil {
		return fmt.Errorf("observed solve: %w", err)
	}
	if rep2.Rounds() != receipt.Rounds || rep2.Messages() != receipt.Messages || rep2.Result.TotalBits != receipt.TotalBits {
		return fmt.Errorf("observed solve: transcript counts differ from the first solve's")
	}
	senders := rp.senders(g, perRound)
	if err := call("congest.echo", func() error { return rp.echo(g, senders) }); err != nil {
		return err
	}

	if err := rp.w.prep(&rp.c, phReplay, 2*k); err != nil {
		return err
	}
	if err := call("server.handler", func() error { return rp.w.op(rp.e.serveFn, &rp.c, phReplay, 2*k) }); err != nil {
		return err
	}
	if err := rp.w.check(&rp.c, phReplay, 2*k); err != nil {
		return fmt.Errorf("server.handler: %w", err)
	}
	if err := rp.w.prep(&rp.c, phReplay, 2*k+1); err != nil {
		return err
	}
	if err := call("server.roundtrip", func() error { return rp.w.op(rp.e.post, &rp.c, phReplay, 2*k+1) }); err != nil {
		return err
	}
	if err := rp.w.check(&rp.c, phReplay, 2*k+1); err != nil {
		return fmt.Errorf("server.roundtrip: %w", err)
	}
	rp.respBytes = append(rp.respBytes, float64(rp.c.solve.body.Len()))
	rp.last = lastSolve{g: g, alpha: alpha, seed: rc.seed}
	return nil
}

// lastSolve is the most recent replayed solve, which solveAllocs repeats.
type lastSolve struct {
	g     *arbods.Graph
	alpha int
	seed  uint64
}

// solveAllocs counts the heap allocations of one more solve of the last
// replayed graph on the warm Runner, as testing.AllocsPerRun would: on one
// P, so no other goroutine's allocations count, and right after a GC, so
// no collection empties a sync.Pool mid-solve.
func (rp *replayer) solveAllocs() (float64, error) {
	if rp.last.g == nil {
		return 0, nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := arbods.WeightedDeterministic(rp.last.g, rp.last.alpha, eps, rp.opts(rp.last.seed)...)
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs - ms0.Mallocs), err
}

// snapshot writes g the way the server's persistence does: ARBCSR01 into
// a temp file beside the target, fsync, rename.
func snapshot(dir, id string, g *arbods.Graph) error {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if err := arbods.EncodeGraphBinary(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, id[len("sha256:"):]+".csr"))
}

// echoTag is a tag from the headroom custom procs may use.
const echoTag = arbods.Tag(arbods.MaxTags - 1)

// echoProc is the engine's floor for a solve: in round r it broadcasts its
// ID when it is one of the senders[r] lowest-numbered nodes, and it sums
// what it hears. senders comes from the solve's own per-round message
// counts, so the engine carries the solve's traffic, round for round,
// under a proc that does almost nothing else.
type echoProc struct {
	id      int
	senders []int
	sum     uint64
}

func (p *echoProc) Step(round int, in []arbods.Incoming, s *arbods.Sender) bool {
	for _, m := range in {
		p.sum += m.P.A
	}
	if round >= len(p.senders) {
		return true
	}
	if p.id < p.senders[round] {
		s.Broadcast(arbods.Packet{Tag: echoTag, A: uint64(p.id), Bits: uint32(arbods.MsgTagBits + arbods.BitsUint(uint64(p.id)))})
	}
	return round == len(p.senders)-1
}

func (p *echoProc) Output() uint64 { return p.sum }

// senders turns per-round message counts into per-round sender prefixes:
// senders[r] is the fewest lowest-numbered nodes whose degrees add up to
// perRound[r].
func (rp *replayer) senders(g *arbods.Graph, perRound []int64) []int {
	out := make([]int, len(perRound))
	for r, want := range perRound {
		var sum int64
		v := 0
		for ; v < g.N() && sum < want; v++ {
			sum += int64(g.Degree(v))
		}
		out[r] = v
	}
	return out
}

// echo runs echoProc on g on the echo Runner. The procs live in one slab
// kept across runs, as the library's own algorithms keep theirs.
func (rp *replayer) echo(g *arbods.Graph, senders []int) error {
	if len(rp.slab) < g.N() {
		rp.slab = make([]echoProc, g.N())
	}
	_, err := arbods.Run(g, func(ni arbods.NodeInfo) arbods.Proc[uint64] {
		p := &rp.slab[ni.ID]
		*p = echoProc{id: ni.ID, senders: senders}
		return p
	}, arbods.WithRunner(rp.echoer), arbods.WithWorkers(rp.workers), arbods.WithRecycledResult())
	return err
}

// medianOf is the median of m's values.
func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, x := range m {
		xs = append(xs, x)
	}
	return median(xs)
}

// medianDiff is the median over ops of a[op] − b[op].
func medianDiff(a, b map[int]float64) float64 {
	var d []float64
	for op, x := range a {
		if y, ok := b[op]; ok {
			d = append(d, x-y)
		}
	}
	return median(d)
}
