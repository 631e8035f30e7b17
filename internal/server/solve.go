package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"arbods"
	"arbods/internal/gen"
)

// SolveRequest asks the server to run one algorithm on one graph.
type SolveRequest struct {
	// Graph references the input: "sha256:<hex>" (a previously uploaded
	// or cached graph), "corpus:<name>" (a file from the corpus
	// directory), or "spec:<gen-spec>" (a generator spec like
	// "forest:n=1000,k=3").
	Graph string `json:"graph"`
	// Algorithm is one of the /v1/algorithms names (default "thm1.1").
	Algorithm string `json:"algorithm,omitempty"`

	// Alpha pins the arboricity bound (0 = the graph's certified
	// default: generator bound, else degeneracy).
	Alpha int     `json:"alpha,omitempty"`
	Eps   float64 `json:"eps,omitempty"`  // default 0.2
	T     int     `json:"t,omitempty"`    // thm1.2 (default 2)
	K     int     `json:"k,omitempty"`    // thm1.3 / kw05 (default 2)
	Seed  uint64  `json:"seed,omitempty"` // run seed (deterministic per seed)

	// Mode is "congest" (default, strict bandwidth), "audit", or "local".
	Mode      string `json:"mode,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`

	// IncludeDS adds the dominating set's node IDs to the response
	// (receipts always carry the set size and weight).
	IncludeDS bool `json:"includeDS,omitempty"`
	// Stream switches the response to NDJSON: one line per simulated
	// round ({"round":…,"messages":…,"bits":…,"activeNodes":…}), then a
	// final {"result":…} line. Streamed solves bypass the solve cache —
	// the round progress is the point, and a cached answer has none.
	Stream bool `json:"stream,omitempty"`
}

// normalize fills the request's defaulted fields in place, against the
// resolved graph for the α default. Solve-cache keys are built from the
// normalized form, so "eps omitted" and "eps: 0.2" are the same request.
func (req *SolveRequest) normalize(e *graphEntry) {
	if req.Algorithm == "" {
		req.Algorithm = "thm1.1"
	}
	if req.Alpha == 0 {
		req.Alpha = e.alpha()
	}
	if req.Eps == 0 {
		req.Eps = 0.2
	}
	if req.T == 0 {
		req.T = 2
	}
	if req.K == 0 {
		req.K = 2
	}
	if req.Mode == "" {
		req.Mode = "congest"
	}
}

// solveKey identifies one solve answer: the request after normalize has
// filled the defaults in (so "eps omitted" and "eps: 0.2" share an entry),
// with the graph reference replaced by its content hash and the
// presentation fields (IncludeDS, Stream) cleared, since the cache stores
// the full answer and the handler shapes the response. Every run-shaping
// field participates.
type solveKey SolveRequest

// solveAnswer is one solve result: the verification receipt and the
// dominating set, both detached from any Runner. Cached answers are shared
// across responses and must be treated as immutable.
type solveAnswer struct {
	receipt *arbods.Receipt
	ds      []int
}

// newSolveCache returns the response-level cache: solves are deterministic per
// (graph, algorithm, parameters, seed) — randomized algorithms included,
// since per-node streams derive from (seed, nodeID) — so a repeated
// request can skip the engine entirely and return the byte-identical
// receipt.
func newSolveCache(capacity int) *lru[solveKey, solveAnswer] {
	if capacity <= 0 {
		capacity = 256
	}
	return newLRU[solveKey, solveAnswer](capacity)
}

// key builds the solve-cache key; call after normalize.
func (req *SolveRequest) key(graphID string) solveKey {
	k := solveKey(*req)
	k.Graph, k.IncludeDS, k.Stream = graphID, false, false
	return k
}

// SolveResponse is the answer-with-proof envelope.
type SolveResponse struct {
	Graph GraphInfo `json:"graph"`
	// CacheHit reports whether the graph's built CSR was already
	// resident (the repeat-query fast path).
	CacheHit bool `json:"cacheHit"`
	// SolveCached reports whether the whole answer came from the solve
	// cache — no engine run happened for this response.
	SolveCached bool `json:"solveCached,omitempty"`
	// ServedBy is the advertised URL of the daemon that executed (or
	// cache-served) the solve; empty on a standalone server. Proxied
	// marks answers that were forwarded to an owner daemon — determinism
	// makes the distinction invisible in the receipt bytes, which is the
	// property the cluster's failover tests pin.
	ServedBy string `json:"servedBy,omitempty"`
	Proxied  bool   `json:"proxied,omitempty"`
	Seed     uint64 `json:"seed"`
	DS       []int  `json:"ds,omitempty"`
	// Receipt is the verification record recomputed from the graph and
	// the run; byte-identical across repeats of the same request,
	// whether the answer was computed or served from the solve cache.
	Receipt *arbods.Receipt `json:"receipt"`
}

// algorithmCatalog documents the servable algorithms; names match
// cmd/mdsrun's -algo values.
var algorithmCatalog = []AlgorithmInfo{
	{Name: "thm3.1", Params: []string{"alpha", "eps"}, Description: "deterministic (2α+1)(1+ε)-approx, unweighted, O(log(Δ/α)/ε) rounds"},
	{Name: "thm1.1", Params: []string{"alpha", "eps"}, Description: "deterministic (2α+1)(1+ε)-approx, weighted, O(log(Δ/α)/ε) rounds"},
	{Name: "thm1.2", Params: []string{"alpha", "t"}, Description: "randomized α+O(α/t)-approx in expectation, weighted, O(t·log Δ) rounds"},
	{Name: "thm1.3", Params: []string{"k"}, Description: "randomized O(kΔ^{2/k})-approx in expectation, general graphs, O(k²) rounds"},
	{Name: "remark4.4", Params: []string{"alpha", "eps"}, Description: "Theorem 1.1 without global knowledge of Δ"},
	{Name: "remark4.5", Params: []string{"eps"}, Description: "Theorem 1.1 without knowledge of α (distributed H-partition estimate)"},
	{Name: "tree", Description: "Observation A.1: one-round 3-approx on forests"},
	{Name: "lw", Description: "Lenzen–Wattenhofer bucket greedy baseline, unweighted"},
	{Name: "lrg", Description: "Jia–Rajaraman–Suel local randomized greedy baseline, unweighted"},
	{Name: "kw05", Params: []string{"k"}, Description: "Kuhn–Wattenhofer fractional+rounding baseline, unweighted"},
}

// solveCall is one solve request on its way through the stages.
type solveCall struct {
	ctx    context.Context // the request context under the server's solve deadline
	t0     time.Time
	rid    uint64 // request id for the structured failure records
	req    SolveRequest
	mode   arbods.Option // from req.Mode; nil for the default congest mode
	e      *graphEntry   // the resolved graph
	hit    bool          // no build ran for this request: the graph was resident or built by another
	stream *streamWriter // set when the run streams round progress
}

// failure is a solve that ends in an error response: the HTTP status, the
// stable code clients switch on, and the cause. Every stage of handleSolve
// returns one (nil on success), and fail renders it.
type failure struct {
	status int
	code   string
	err    error
}

func (f *failure) Error() string { return f.err.Error() }

// failf builds a failure carrying its status's default code.
func failf(status int, format string, args ...any) *failure {
	return &failure{status: status, code: defaultCode(status), err: fmt.Errorf(format, args...)}
}

// runFailure classifies an error from a blocking stage or from the run.
// Context deaths get distinct treatment: the server's deadline answers 503
// with Retry-After (the work was sound, the budget was not — come back),
// the client's own disconnect answers 499 for the logs, a recovered proc
// panic answers 500 (the one failure that is the server's fault, not the
// request's), and everything else is the usual 400 with the run error.
func runFailure(err error, algo string) *failure {
	var f *failure
	var pe *arbods.ProcPanicError
	switch {
	case errors.As(err, &f):
		return f
	case errors.Is(err, context.DeadlineExceeded):
		return &failure{http.StatusServiceUnavailable, "deadline_exceeded", fmt.Errorf("solve %s: %w", algo, err)}
	case errors.Is(err, context.Canceled):
		return &failure{StatusClientClosedRequest, "canceled", fmt.Errorf("solve %s: %w", algo, err)}
	case errors.As(err, &pe):
		return &failure{http.StatusInternalServerError, "proc_panic", fmt.Errorf("solve %s: %w", algo, err)}
	default:
		return &failure{http.StatusBadRequest, "run_failed", fmt.Errorf("run %s: %w", algo, err)}
	}
}

// handleSolve runs one solve through its stages: decode → route to owner
// → resolve → solve cache → admit → run → respond. Every blocking stage
// observes the request context — the configured solve deadline plus the
// client's disconnect — so an abandoned request frees its pool slot
// within one simulated round.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	c := &solveCall{ctx: r.Context(), t0: time.Now(), rid: s.reqSeq.Add(1)}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		c.ctx, cancel = context.WithTimeout(c.ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	if f := s.solve(w, r, c); f != nil {
		s.fail(w, c, f)
	}
}

func (s *Server) solve(w http.ResponseWriter, r *http.Request, c *solveCall) *failure {
	raw, f := c.decode(w, r)
	if f != nil {
		return f
	}
	if s.routeToOwner(w, r, raw, &c.req) {
		return nil
	}
	if f := s.resolve(c); f != nil {
		return f
	}
	c.req.normalize(c.e)
	key := c.req.key(c.e.id)
	if !c.req.Stream {
		if a, ok := s.scache.get(key); ok {
			s.respond(w, c, a, true)
			return nil
		}
	}
	runner, release, f := s.admit(c)
	if f != nil {
		return f
	}
	defer release()
	a, f := s.run(w, c, runner)
	if f != nil {
		return f
	}
	if !c.req.Stream {
		s.scache.add(key, a)
	}
	s.respond(w, c, a, false)
	return nil
}

// decode reads and parses the request. It reads the body fully and
// returns it: when the graph hashes to another daemon the raw bytes
// forward verbatim, since re-encoding a decoded request could normalize
// a field and change the solve.
func (c *solveCall) decode(w http.ResponseWriter, r *http.Request) ([]byte, *failure) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, failf(http.StatusBadRequest, "read request: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c.req); err != nil {
		return nil, failf(http.StatusBadRequest, "decode request: %v", err)
	}
	if c.mode, err = modeOption(c.req.Mode); err != nil {
		return nil, failf(http.StatusBadRequest, "%v", err)
	}
	return raw, nil
}

// resolve turns the request's graph reference into a resident entry. Each
// reference kind supplies only a loader, which the graph cache calls on a
// miss; concurrent misses on one reference share one loader call, and a
// waiter abandoned by its context stops waiting with ctx.Err().
func (s *Server) resolve(c *solveCall) *failure {
	ref := c.req.Graph
	var load func() (string, *graphEntry, error)
	switch {
	case ref == "":
		return failf(http.StatusBadRequest, "missing graph reference")
	case strings.HasPrefix(ref, "sha256:"):
		load = func() (string, *graphEntry, error) {
			// The leader's result serves every waiter, so its peer fetches
			// outlive its own client (each is bounded by the probe timeout).
			return s.reloadGraph(context.WithoutCancel(c.ctx), ref)
		}
	case strings.HasPrefix(ref, "corpus:"), strings.HasPrefix(ref, "spec:"):
		load = func() (string, *graphEntry, error) { return s.buildNamed(ref) }
	default:
		return failf(http.StatusBadRequest, "graph reference %q must start with sha256:, corpus:, or spec:", ref)
	}
	t := time.Now()
	e, hit, err := s.cache.load(c.ctx, ref, load)
	if err != nil {
		return runFailure(err, c.req.Algorithm)
	}
	if hit {
		e.hits.Add(1)
	} else {
		s.lat.build.observe(time.Since(t))
	}
	c.e, c.hit = e, hit
	return nil
}

// reloadGraph is the sha256: loader. Uploads cannot be rebuilt from the
// reference, so a graph that is not resident is read back from this
// daemon's own snapshot when it has one (an upload the LRU evicted), else
// recovered from a peer, else unknown.
func (s *Server) reloadGraph(ctx context.Context, id string) (string, *graphEntry, error) {
	if e, ok := s.persist.reload(id); ok {
		return id, e, nil
	}
	if e, ok := s.fetchPeerSnapshot(ctx, id); ok {
		return id, e, nil
	}
	return "", nil, failf(http.StatusNotFound, "graph %s not cached (upload it first; uploads cannot be rebuilt)", id)
}

// buildNamed is the loader of "corpus:…" and "spec:…" references: read or
// generate the graph, build its entry, and install it under its content
// hash, which the reference then aliases.
func (s *Server) buildNamed(ref string) (string, *graphEntry, error) {
	if err := s.cfg.Faults.Fire("server.build"); err != nil {
		return "", nil, failf(http.StatusInternalServerError, "%v", err)
	}
	var g *arbods.Graph
	bound := 0 // corpus files certify no α bound
	if name, ok := strings.CutPrefix(ref, "corpus:"); ok {
		var err error
		if g, err = loadCorpus(s.cfg.CorpusDir, name); err != nil {
			return "", nil, failf(http.StatusNotFound, "load %s: %v", ref, err)
		}
	} else {
		w, err := gen.Parse(strings.TrimPrefix(ref, "spec:"))
		if err != nil {
			return "", nil, failf(http.StatusBadRequest, "bad spec %q: %v", ref, err)
		}
		g, bound = w.G, w.ArboricityBound
	}
	e, err := buildEntry(g, ref, bound)
	if err != nil {
		return "", nil, failf(http.StatusInternalServerError, "%v", err)
	}
	e, _ = s.install(e, &s.builds)
	return e.id, e, nil
}

// admit reserves what a run needs, in order: a slot under the graph's
// in-flight cap (fairness: a hot graph saturates its own share of the
// pool and nothing more), a place in the bounded admission queue (so
// overload answers fast instead of stacking goroutines behind the pool;
// the "server.admit" failpoint injects the overflow for chaos tests), and
// a Runner. release returns all three.
func (s *Server) admit(c *solveCall) (runner *arbods.Runner, release func(), f *failure) {
	id := c.e.id
	if !s.gate.acquire(id) {
		return nil, nil, &failure{http.StatusTooManyRequests, "hot_graph",
			fmt.Errorf("graph %s already has %d solves in flight (per-graph cap)", id[:14], s.cfg.MaxPerGraph)}
	}
	tQueue := time.Now()
	queued := s.cfg.Faults.Fire("server.admit") == nil
	if queued {
		select {
		case s.queue <- struct{}{}:
		default:
			queued = false
		}
	}
	if !queued {
		s.gate.release(id)
		return nil, nil, failf(http.StatusTooManyRequests, "server at capacity (%d solves in flight or queued)", cap(s.queue))
	}
	runner, err := s.pool.GetContext(c.ctx)
	if err != nil {
		<-s.queue
		s.gate.release(id)
		return nil, nil, runFailure(err, c.req.Algorithm)
	}
	s.lat.queue.observe(time.Since(tQueue))
	return runner, func() {
		s.pool.Put(runner)
		<-s.queue
		s.gate.release(id)
	}, nil
}

// run executes the algorithm on the checked-out Runner under the request
// context and returns the detached answer with its receipt, streaming
// round progress as it happens when the request asks for it.
func (s *Server) run(w http.ResponseWriter, c *solveCall, runner *arbods.Runner) (solveAnswer, *failure) {
	opts := []arbods.Option{
		arbods.WithContext(c.ctx),
		arbods.WithSeed(c.req.Seed),
		arbods.WithRunner(runner),
		arbods.WithWorkers(s.pool.Workers()),
		arbods.WithRecycledResult(),
	}
	if c.mode != nil {
		opts = append(opts, c.mode)
	}
	if s.cfg.Faults != nil {
		opts = append(opts, arbods.WithFaultInjection(s.cfg.Faults))
	}
	if c.req.MaxRounds > 0 {
		opts = append(opts, arbods.WithMaxRounds(c.req.MaxRounds))
	}
	if c.req.Stream {
		c.stream = newStreamWriter(w)
		opts = append(opts, arbods.WithRoundObserver(c.stream.round))
	}
	t := time.Now()
	rep, err := runAlgorithm(&c.req, c.e.g, opts)
	if err != nil {
		return solveAnswer{}, runFailure(err, c.req.Algorithm)
	}
	s.lat.solve.observe(time.Since(t))
	// Detach before release: the recycled Result lives on Runner-owned
	// memory that the next checkout overwrites. The detached receipt and
	// set are immutable, so a cached answer is exactly the bytes a rerun
	// would produce.
	rep = rep.Detach()
	return solveAnswer{receipt: arbods.BuildReceipt(c.e.g, rep), ds: rep.DS}, nil
}

// respond answers a solved request, from the solve cache or from a run,
// as JSON or as the stream's final line.
func (s *Server) respond(w http.ResponseWriter, c *solveCall, a solveAnswer, cached bool) {
	s.solves.Add(1)
	resp := &SolveResponse{
		Graph:       entryInfo(c.e),
		CacheHit:    c.hit,
		SolveCached: cached,
		ServedBy:    s.cluster.Self(),
		Seed:        c.req.Seed,
		Receipt:     a.receipt,
	}
	if c.req.IncludeDS {
		resp.DS = a.ds
	}
	s.lat.total.observe(time.Since(c.t0))
	s.logf("solve %s on %s n=%d seed=%d: size=%d rounds=%d ok=%v hit=%v cached=%v",
		c.req.Algorithm, c.e.id[:14], c.e.g.N(), c.req.Seed, a.receipt.SetSize, a.receipt.Rounds, a.receipt.OK, c.hit, cached)
	if c.stream != nil {
		c.stream.finish(resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// fail answers a failed solve, and is the one place its outcome is
// counted: timeouts, cancellations, panics (with their structured log
// record) and load sheds. The error goes out as the JSON envelope, or —
// once a stream has committed its 200 — as the stream's last line,
// carrying the same code.
func (s *Server) fail(w http.ResponseWriter, c *solveCall, f *failure) {
	switch f.code {
	case "deadline_exceeded":
		s.timeouts.Add(1)
	case "canceled":
		s.canceled.Add(1)
	case "proc_panic":
		// The panic was recovered on the engine's goroutines and the Runner
		// quarantined at release (RunnerPool.Put replaces it): this request
		// is lost, every other in-flight solve is untouched. One structured
		// record carries everything an operator needs to find the faulty
		// callback.
		s.panics.Add(1)
		var pe *arbods.ProcPanicError
		errors.As(f.err, &pe)
		s.logf("event=proc_panic req=%d graph=%s round=%d node=%d value=%q stack=%q",
			c.rid, c.e.id, pe.Round, pe.Node, fmt.Sprint(pe.Value), truncStack(pe.Stack))
	case "at_capacity":
		s.rejected.Add(1)
		fallthrough
	case "hot_graph":
		s.shed.Add(1)
		s.lat.shed.observe(time.Since(c.t0))
	}
	if c.stream != nil && c.stream.started {
		c.stream.fail(f)
		return
	}
	if f.status == http.StatusTooManyRequests || f.code == "deadline_exceeded" {
		w.Header().Set("Retry-After", s.retryAfterHint())
	}
	s.reply(w, f)
}

// runAlgorithm dispatches one solve on g with the given options; the
// request must be normalized.
func runAlgorithm(req *SolveRequest, g *arbods.Graph, opts []arbods.Option) (*arbods.Report, error) {
	switch req.Algorithm {
	case "thm3.1":
		return arbods.UnweightedDeterministic(g, req.Alpha, req.Eps, opts...)
	case "thm1.1":
		return arbods.WeightedDeterministic(g, req.Alpha, req.Eps, opts...)
	case "thm1.2":
		return arbods.WeightedRandomized(g, req.Alpha, req.T, opts...)
	case "thm1.3":
		return arbods.GeneralGraphs(g, req.K, opts...)
	case "remark4.4":
		return arbods.UnknownDelta(g, req.Alpha, req.Eps, opts...)
	case "remark4.5":
		return arbods.UnknownAlpha(g, req.Eps, opts...)
	case "tree":
		return arbods.TreeThreeApprox(g, opts...)
	case "lw":
		return arbods.LWBucketDeterministic(g, opts...)
	case "lrg":
		return arbods.LRGRandomized(g, opts...)
	case "kw05":
		rep, _, err := arbods.KW05(g, req.K, opts...)
		return rep, err
	default:
		return nil, fmt.Errorf("unknown algorithm %q (see GET /v1/algorithms)", req.Algorithm)
	}
}

func modeOption(mode string) (arbods.Option, error) {
	switch mode {
	case "", "congest":
		return nil, nil
	case "audit":
		return arbods.WithMode(arbods.CongestAudit), nil
	case "local":
		return arbods.WithMode(arbods.Local), nil
	default:
		return nil, fmt.Errorf("unknown mode %q (congest, audit, local)", mode)
	}
}

// truncStack keeps the panic record one line and bounded: the top of the
// stack identifies the faulty frame; the rest is noise at log volume.
func truncStack(stack []byte) string {
	const max = 600
	if len(stack) > max {
		return string(stack[:max]) + "…"
	}
	return string(stack)
}

// streamWriter emits NDJSON round progress followed by the final result.
// All writes happen on the handler goroutine (the engine invokes the
// round observer on the run's coordinating goroutine, which is the
// handler's), so no locking is needed.
type streamWriter struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	flusher http.Flusher
	started bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w)}
	sw.flusher, _ = w.(http.Flusher)
	return sw
}

func (sw *streamWriter) start() {
	if sw.started {
		return
	}
	sw.started = true
	sw.w.Header().Set("Content-Type", "application/x-ndjson")
	sw.w.WriteHeader(http.StatusOK)
}

// progressLine is one streamed round.
type progressLine struct {
	Round       int   `json:"round"`
	Messages    int64 `json:"messages"`
	Bits        int64 `json:"bits"`
	ActiveNodes int   `json:"activeNodes"`
}

func (sw *streamWriter) round(rs arbods.RoundStat) {
	sw.start()
	_ = sw.enc.Encode(progressLine{
		Round: rs.Round, Messages: rs.Messages, Bits: rs.Bits, ActiveNodes: rs.ActiveNodes,
	})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// fail emits the terminal NDJSON error line, carrying the same code an
// unstreamed response would have in its error envelope.
func (sw *streamWriter) fail(f *failure) {
	_ = sw.enc.Encode(errorBody{Error: f.err.Error(), Code: f.code})
}

func (sw *streamWriter) finish(resp *SolveResponse) {
	sw.start()
	_ = sw.enc.Encode(struct {
		Result *SolveResponse `json:"result"`
	}{Result: resp})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}
