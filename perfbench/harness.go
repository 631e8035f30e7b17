package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"arbods/internal/server"
)

// env is one running server: internal/server with its default Config
// (plus DataDir for ingest) behind a loopback httptest listener.
type env struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	dir string // DataDir, removed by close ("" when unset)
}

func newEnv(dataDir string) (*env, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	// The timeout only bounds a hung server; the slowest op takes seconds.
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return &env{srv: srv, ts: ts, hc: hc, dir: dataDir}, nil
}

func (e *env) close() {
	e.hc.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// reply is one HTTP answer: its status and its body.
type reply struct {
	status int
	body   bytes.Buffer
}

// post sends body to path and reads the whole answer into r.
func (e *env) post(path, ctype string, body []byte, r *reply) error {
	resp, err := e.hc.Post(e.ts.URL+path, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.body.Reset()
	_, err = r.body.ReadFrom(resp.Body)
	return err
}

// serve runs the same request through the handler directly, with no
// listener or client in between.
func (e *env) serve(path, ctype string, body []byte, r *reply) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	e.srv.ServeHTTP(rec, req)
	r.status = rec.Code
	r.body.Reset()
	r.body.Write(rec.Body.Bytes())
}

func (e *env) getJSON(path string, v any) error {
	resp, err := e.hc.Get(e.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (e *env) stats() (server.Stats, error) {
	var st server.Stats
	return st, e.getJSON("/v1/stats", &st)
}

// delta is the change in the server's counters over a measured interval.
type delta struct {
	cacheHits, cacheMisses           int64
	solveCacheHits, solveCacheMisses int64
	builds, solves                   int64
	rejected, shed, timeouts         int64
	canceled, panics                 int64
	snapshotSaves, snapshotErrors    int64
}

func diff(x, y server.Stats) delta {
	return delta{
		cacheHits: y.CacheHits - x.CacheHits, cacheMisses: y.CacheMisses - x.CacheMisses,
		solveCacheHits: y.SolveCacheHits - x.SolveCacheHits, solveCacheMisses: y.SolveCacheMisses - x.SolveCacheMisses,
		builds: y.Builds - x.Builds, solves: y.Solves - x.Solves,
		rejected: y.Rejected - x.Rejected, shed: y.Shed - x.Shed, timeouts: y.Timeouts - x.Timeouts,
		canceled: y.Canceled - x.Canceled, panics: y.Panics - x.Panics,
		snapshotSaves: y.SnapshotSaves - x.SnapshotSaves, snapshotErrors: y.SnapshotErrors - x.SnapshotErrors,
	}
}

// ratio is a/(a+b), and 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// window is the outcome of one closed-loop measured interval.
type window struct {
	lat      []float64 // per-op latency in ms, successful and failed ops alike
	ops      int64
	failed   int64
	elapsed  time.Duration
	cpu      time.Duration
	mem      memDelta
	firstErr error
}

// memDelta is the allocation and GC activity over a measured interval.
type memDelta struct {
	allocB, gcs, pauseNs uint64
}

func memSince(m0 *runtime.MemStats) memDelta {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return memDelta{
		allocB: m1.TotalAlloc - m0.TotalAlloc, gcs: uint64(m1.NumGC - m0.NumGC),
		pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

func (m memDelta) add(o memDelta) memDelta {
	return memDelta{allocB: m.allocB + o.allocB, gcs: m.gcs + o.gcs, pauseNs: m.pauseNs + o.pauseNs}
}

func (w *window) merge(o window) {
	w.lat = append(w.lat, o.lat...)
	w.ops += o.ops
	w.failed += o.failed
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.mem = w.mem.add(o.mem)
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// opFuncs are a workload's ops bound to a server, a phase and the
// clients' conns.
type opFuncs struct {
	busyOnly        bool
	prep, op, check func(c, i int) error
}

// drive runs clients closed loops for dur: each client prepares its next
// op, sends it, and checks the answers before it prepares another. Only op
// runs on the clock. With busyOnly, which needs a single client, the
// measured interval, CPU time and allocations are those of the ops alone;
// otherwise all three run from the first op to the last answer.
func (f opFuncs) drive(clients int, dur time.Duration, next *atomic.Int64) window {
	busyOnly, prep, op, check := f.busyOnly, f.prep, f.op, f.check
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out window
	)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine window
			mine.lat = make([]float64, 0, 1024)
			for (busyOnly && mine.elapsed < dur) || (!busyOnly && time.Since(start) < dur) {
				i := int(next.Add(1) - 1)
				err := prep(c, i)
				if err == nil {
					var opm runtime.MemStats
					if busyOnly {
						runtime.ReadMemStats(&opm)
					}
					c0 := cpuTime()
					t0 := time.Now()
					err = op(c, i)
					lat := time.Since(t0)
					if busyOnly {
						mine.cpu += cpuTime() - c0
						mine.elapsed += lat
						mine.mem = mine.mem.add(memSince(&opm))
					}
					mine.lat = append(mine.lat, float64(lat)/1e6)
				}
				if err == nil {
					err = check(c, i)
				}
				mine.ops++
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
			}
			mu.Lock()
			out.merge(mine)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if !busyOnly {
		out.elapsed = time.Since(start)
		out.cpu = cpuTime() - cpu0
		out.mem = memSince(&m0)
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the middle of xs, averaging the two middle values of an even
// count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// decodeJSON decodes a small response body, failing on a non-200.
func decodeJSON(r *reply, v any) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body.Bytes())
	}
	return json.Unmarshal(r.body.Bytes(), v)
}

// splitmix is the seed mixer every generated input derives from.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive gives the independent seed for input j of kind under the run
// seed.
func derive(seed, kind, j uint64) uint64 {
	return splitmix(splitmix(splitmix(seed)^kind) ^ j)
}
