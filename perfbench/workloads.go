package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"arbods"
	"arbods/internal/server"
)

// Every workload solves with Theorem 1.1 at ε = 0.2 on weighted
// forest-union graphs (arboricity ≤ 3, weights uniform in [1, 100]): one
// graph family and one algorithm per workload keeps each op's cost
// unimodal, so the median never falls between two modes.
const (
	forestK   = 3
	maxWeight = 100
	eps       = 0.2
)

// phase separates the op numbers of the warm-up, the measured run and the
// traced replay, so each phase draws inputs of its own.
type phase uint64

const (
	phWarm phase = iota + 1
	phRun
	phReplay
)

// sendFunc delivers one request: over the loopback listener (env.post)
// or straight into the handler (env.serveFn).
type sendFunc func(path, ctype string, body []byte, r *reply) error

func (e *env) serveFn(path, ctype string, body []byte, r *reply) error {
	e.serve(path, ctype, body, r)
	return nil
}

// conn is one client's state: the input of its current op where a
// workload makes one per op, and its last answers, the upload (ingest
// only) and the solve.
type conn struct {
	in        input
	up, solve reply
}

// workload is one traffic mix. prepare builds the inputs from the seed
// once per invocation; load puts the workload's resident state on a fresh
// server; prep builds op i's own input where the workload makes one per
// op; op sends op i of a phase; check verifies its answers. Only op runs
// on the clock.
type workload interface {
	shape() shape
	prepare(o options) error
	load(e *env) error
	prep(c *conn, ph phase, i int) error
	op(send sendFunc, c *conn, ph phase, i int) error
	check(c *conn, ph phase, i int) error
	// replayCase is the input of traced replay k: the graph and request of
	// replay op 2k.
	replayCase(k int) (replayCase, error)
	// release drops the inputs only the traced replay needs, so the live
	// heap measured at run end is the server's.
	release()
}

// shape is what the harness must know about a workload.
type shape struct {
	clients int
	// perOpInputs: prep does work, so the measured interval is the time
	// ops are in flight rather than the wall clock (one client only).
	perOpInputs bool
	// solveCacheHits is the designed outcome of every op's solve-cache
	// lookup.
	solveCacheHits bool
	// persists: the server runs with a DataDir and writes one snapshot
	// per op.
	persists bool
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "solve-warm":
		return &solveWarm{}, nil
	case "solve-cached":
		return &solveCached{}, nil
	case "ingest":
		return &ingest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (solve-warm, solve-cached, ingest)", name)
}

// replayCase is what the traced replay needs to re-run one op layer by
// layer in-process: its graph and the request's seed and shape.
type replayCase struct {
	input
	seed      uint64
	includeDS bool
}

// ref is the in-process reference answer an op's receipt must match. Every
// field is exact: Theorem 1.1 is deterministic, so every seed, worker
// count and Runner gives the same set and the same transcript counts.
type ref struct {
	size     int
	weight   int64
	rounds   int
	messages int64
	bits     int64
	ds       []int // kept only where answers carry the set
}

// input is one generated graph, encoded and solved in-process.
type input struct {
	body  []byte // text format
	id    string // "sha256:" of the canonical encoding
	alpha int    // α the requests pin; 0 = the degeneracy, the server's default
	want  ref
}

// genInput generates the weighted forest union of n nodes under seed,
// encodes it, and solves it on r for the reference answer. alpha 0 solves
// at the degeneracy (the server's default for uploads), otherwise at the
// generator's certified bound.
func genInput(n int, seed uint64, pinAlpha bool, keepDS bool, r *arbods.Runner) (input, error) {
	w := arbods.ForestUnion(n, forestK, seed)
	g := arbods.UniformWeights(w.G, maxWeight, splitmix(seed))
	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, g); err != nil {
		return input{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	in := input{body: buf.Bytes(), id: "sha256:" + hex.EncodeToString(sum[:])}
	alpha := w.ArboricityBound
	if !pinAlpha {
		_, alpha = arbods.Degeneracy(g)
	} else {
		in.alpha = alpha
	}
	rep, err := arbods.WeightedDeterministic(g, alpha, eps,
		arbods.WithRunner(r), arbods.WithWorkers(1), arbods.WithRecycledResult())
	if err != nil {
		return input{}, fmt.Errorf("reference solve: %w", err)
	}
	in.want = ref{
		size: len(rep.DS), weight: rep.DSWeight,
		rounds: rep.Rounds(), messages: rep.Messages(), bits: rep.Result.TotalBits,
	}
	if keepDS {
		in.want.ds = slices.Clone(rep.DS)
	}
	return in, nil
}

// genInputs generates count inputs on up to GOMAXPROCS goroutines, input
// j from derive(seed, kind, j).
func genInputs(count, n int, seed, kind uint64, pinAlpha, keepDS bool) ([]input, error) {
	out := make([]input, count)
	errs := make([]error, count)
	workers := min(runtime.GOMAXPROCS(0), count)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := arbods.NewRunner()
			defer r.Close()
			for j := w; j < count; j += workers {
				out[j], errs[j] = genInput(n, derive(seed, kind, uint64(j)), pinAlpha, keepDS, r)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// upload posts a graph in the text format and checks the server filed it
// under the benchmark's own content address, as a graph it had not seen.
func upload(send sendFunc, r *reply, in input) error {
	if err := send("/v1/graphs", "text/plain", in.body, r); err != nil {
		return err
	}
	return checkUpload(r, in)
}

func checkUpload(r *reply, in input) error {
	var info server.GraphInfo
	if err := decodeJSON(r, &info); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if info.ID != in.id || !info.New {
		return fmt.Errorf("upload: got id %s new=%v, want %s new=true", info.ID, info.New, in.id)
	}
	return nil
}

func solveBody(id string, alpha int, seed uint64, includeDS bool) []byte {
	b, _ := json.Marshal(server.SolveRequest{
		Graph: id, Algorithm: "thm1.1", Alpha: alpha, Eps: eps, Seed: seed, IncludeDS: includeDS,
	})
	return b
}

// checkSolve verifies a solve answer without the set: 200, a passing
// receipt equal to the reference, and the designed cache outcomes.
func checkSolve(r *reply, want ref, solveCached bool) error {
	var resp server.SolveResponse
	if err := decodeJSON(r, &resp); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if !resp.CacheHit || resp.SolveCached != solveCached {
		return fmt.Errorf("solve: cacheHit=%v solveCached=%v, want true/%v", resp.CacheHit, resp.SolveCached, solveCached)
	}
	return checkReceipt(resp.Receipt, want)
}

func checkReceipt(rc *arbods.Receipt, want ref) error {
	if rc == nil || !rc.OK {
		return fmt.Errorf("receipt missing or not ok: %+v", rc)
	}
	got := ref{size: rc.SetSize, weight: rc.SetWeight, rounds: rc.Rounds, messages: rc.Messages, bits: rc.TotalBits}
	want.ds = nil
	if got.size != want.size || got.weight != want.weight || got.rounds != want.rounds ||
		got.messages != want.messages || got.bits != want.bits {
		return fmt.Errorf("receipt %+v differs from the reference %+v", got, want)
	}
	return nil
}

// solveWarm: Theorem 1.1 solves on resident graphs, each with a seed never
// used before, so the graph cache hits and the solve cache misses. The
// engine and the algorithm are nearly the whole op.
type solveWarm struct {
	seed   uint64
	graphs []input
}

func (w *solveWarm) shape() shape { return shape{clients: min(2, runtime.GOMAXPROCS(0))} }

func (w *solveWarm) prep(*conn, phase, int) error { return nil }

func (w *solveWarm) prepare(o options) (err error) {
	w.seed = o.seed
	w.graphs, err = genInputs(o.sizes.warmGraphs, o.sizes.warmN, o.seed, 1, true, false)
	return err
}

func (w *solveWarm) load(e *env) error {
	var r reply
	for _, in := range w.graphs {
		if err := upload(e.post, &r, in); err != nil {
			return err
		}
	}
	return nil
}

func (w *solveWarm) opSeed(ph phase, i int) uint64 { return derive(w.seed, 100+uint64(ph), uint64(i)) }

func (w *solveWarm) op(send sendFunc, c *conn, ph phase, i int) error {
	in := w.graphs[i%len(w.graphs)]
	return send("/v1/solve", "application/json", solveBody(in.id, in.alpha, w.opSeed(ph, i), false), &c.solve)
}

func (w *solveWarm) check(c *conn, ph phase, i int) error {
	return checkSolve(&c.solve, w.graphs[i%len(w.graphs)].want, false)
}

func (w *solveWarm) replayCase(k int) (replayCase, error) {
	in := w.graphs[(2*k)%len(w.graphs)]
	return replayCase{input: in, seed: w.opSeed(phReplay, 2*k)}, nil
}

func (w *solveWarm) release() {
	for i := range w.graphs {
		w.graphs[i].body = nil
	}
}

// solveCached: a fixed set of (graph, seed) requests on large graphs whose
// answers, set included, are already in the solve cache. The engine does
// no work; the request pipeline, the solve-cache LRU, JSON encoding and
// the HTTP transport do all of it.
type solveCached struct {
	seed   uint64
	seeds  int
	graphs []input
	// answers holds, per request key, the set and receipt bytes of the
	// answer captured at load; every op must return them byte for byte.
	answers []answer
}

type answer struct{ ds, receipt []byte }

// One client: two clients saturate both cores, and their ops phase-lock
// into a fast and a slow mode (alternating or overlapping encodes), so
// the median jumped between modes from run to run.
func (w *solveCached) shape() shape { return shape{clients: 1, solveCacheHits: true} }

func (w *solveCached) prep(*conn, phase, int) error { return nil }

func (w *solveCached) prepare(o options) (err error) {
	w.seed, w.seeds = o.seed, o.sizes.cachedSeeds
	w.graphs, err = genInputs(o.sizes.cachedGraphs, o.sizes.cachedN, o.seed, 2, true, true)
	return err
}

// key maps op i to its request: graph i/seeds, seed i%seeds, cycling.
func (w *solveCached) key(i int) (input, uint64) {
	k := i % (len(w.graphs) * w.seeds)
	return w.graphs[k/w.seeds], derive(w.seed, 200, uint64(k%w.seeds))
}

func (w *solveCached) load(e *env) error {
	var r reply
	for _, in := range w.graphs {
		if err := upload(e.post, &r, in); err != nil {
			return err
		}
	}
	// The first ask of each key is the cold solve that fills the cache.
	// Its answer is checked in full, set included, and captured.
	keys := len(w.graphs) * w.seeds
	answers := make([]answer, keys)
	for k := 0; k < keys; k++ {
		in, seed := w.key(k)
		if err := e.post("/v1/solve", "application/json", solveBody(in.id, in.alpha, seed, true), &r); err != nil {
			return err
		}
		var resp server.SolveResponse
		if err := decodeJSON(&r, &resp); err != nil {
			return fmt.Errorf("cold solve: %w", err)
		}
		if err := checkReceipt(resp.Receipt, in.want); err != nil {
			return fmt.Errorf("cold solve: %w", err)
		}
		if !slices.Equal(resp.DS, in.want.ds) {
			return fmt.Errorf("cold solve: dominating set differs from the reference solve")
		}
		ds, rc, err := answerSpans(r.body.Bytes())
		if err != nil {
			return err
		}
		answers[k] = answer{ds: bytes.Clone(ds), receipt: bytes.Clone(rc)}
		if w.answers != nil && (!bytes.Equal(answers[k].ds, w.answers[k].ds) || !bytes.Equal(answers[k].receipt, w.answers[k].receipt)) {
			return fmt.Errorf("cold solve: answer differs from the previous set-up's")
		}
	}
	w.answers = answers
	return nil
}

// answerSpans cuts the "ds" and "receipt" members out of a solve answer.
// The rest of the body may differ between answers (graph.hits counts every
// response), these two may not.
func answerSpans(body []byte) (ds, receipt []byte, err error) {
	i := bytes.Index(body, []byte(`"ds": [`))
	j := bytes.LastIndex(body, []byte(`"receipt": {`))
	if i < 0 || j < i {
		return nil, nil, fmt.Errorf("answer lacks ds or receipt: %.200s", body)
	}
	return body[i:j], body[j:], nil
}

func (w *solveCached) op(send sendFunc, c *conn, ph phase, i int) error {
	in, seed := w.key(i)
	return send("/v1/solve", "application/json", solveBody(in.id, in.alpha, seed, true), &c.solve)
}

func (w *solveCached) check(c *conn, ph phase, i int) error {
	r := &c.solve
	if r.status != 200 {
		return fmt.Errorf("solve: status %d: %.200s", r.status, r.body.Bytes())
	}
	body := r.body.Bytes()
	ds, rc, err := answerSpans(body)
	if err != nil {
		return err
	}
	if !bytes.Contains(body[:len(body)-len(ds)-len(rc)], []byte(`"solveCached": true`)) {
		return fmt.Errorf("solve: answer not served from the solve cache")
	}
	want := w.answers[i%len(w.answers)]
	if !bytes.Equal(ds, want.ds) || !bytes.Equal(rc, want.receipt) {
		return fmt.Errorf("solve: cached answer differs from the one captured at set-up")
	}
	return nil
}

func (w *solveCached) replayCase(k int) (replayCase, error) {
	in, seed := w.key(2 * k)
	return replayCase{input: in, seed: seed, includeDS: true}, nil
}

func (w *solveCached) release() {
	for i := range w.graphs {
		w.graphs[i].body = nil
		w.graphs[i].want.ds = nil
	}
}

// ingest: each op uploads a graph the server has never seen, in the text
// format, then runs one default solve on it. The only workload on the
// write path: text decode, content hashing, degeneracy, graph-cache
// insert and eviction, and ARBCSR01 snapshot writes with fsync.
//
// Each op's graph is generated, hashed and solved for reference just
// before the op, with the clock stopped: a pool for a whole run would
// hold hundreds of megabytes. So ingest runs one client, and its measured
// interval is the time its ops are in flight.
type ingest struct {
	seed uint64
	n    int
	ref  *arbods.Runner
}

func (w *ingest) shape() shape { return shape{clients: 1, perOpInputs: true, persists: true} }

func (w *ingest) prepare(o options) error {
	w.seed, w.n, w.ref = o.seed, o.sizes.ingestN, arbods.NewRunner()
	return nil
}

// load has nothing to do: ingest starts from an empty server, and its
// warm-up ops are ordinary ingest ops.
func (w *ingest) load(*env) error { return nil }

func (w *ingest) input(ph phase, i int) (input, error) {
	return genInput(w.n, derive(w.seed, 3, uint64(ph)<<32|uint64(i)), false, false, w.ref)
}

func (w *ingest) prep(c *conn, ph phase, i int) (err error) {
	c.in, err = w.input(ph, i)
	return err
}

func (w *ingest) op(send sendFunc, c *conn, ph phase, i int) error {
	if err := send("/v1/graphs", "text/plain", c.in.body, &c.up); err != nil {
		return err
	}
	return send("/v1/solve", "application/json", []byte(`{"graph":"`+c.in.id+`"}`), &c.solve)
}

func (w *ingest) check(c *conn, ph phase, i int) error {
	if err := checkUpload(&c.up, c.in); err != nil {
		return err
	}
	return checkSolve(&c.solve, c.in.want, false)
}

func (w *ingest) replayCase(k int) (replayCase, error) {
	in, err := w.input(phReplay, 2*k)
	return replayCase{input: in}, err
}

func (w *ingest) release() {}
