package server_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"arbods"
	"arbods/internal/server"
)

// TestGraphMetaNotCounted: metadata reads and peer snapshot fetches of
// GET /v1/graphs/{id} are not solve-path lookups, so they leave the graph
// cache's hit/miss counters alone.
func TestGraphMetaNotCounted(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	info := uploadGraph(t, ts.URL, arbods.Path(12).G)
	for range 3 {
		if code := getJSON(t, ts.URL+"/v1/graphs/"+info.ID, nil); code != http.StatusOK {
			t.Fatalf("meta: status %d", code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/graphs/sha256:"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Fatalf("meta of an unknown id: status %d", code)
	}
	if st := serverStats(t, ts.URL); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("metadata reads counted as cache lookups: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestEvictedUploadReloadsSnapshot: an upload the LRU evicted is read back
// from the daemon's own snapshot on its next solve — a cache miss, not a
// build — and answers with the receipt it had before eviction.
func TestEvictedUploadReloadsSnapshot(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1, MaxCachedGraphs: 1, MaxCachedSolves: 1, DataDir: t.TempDir()})
	a := uploadGraph(t, ts.URL, arbods.Grid(6, 7).G)
	reqA := server.SolveRequest{Graph: a.ID, Algorithm: "thm1.1", Seed: 3}
	_, before, _ := solveRaw(t, ts.URL, reqA)

	b := uploadGraph(t, ts.URL, arbods.Cycle(30).G)                                     // evicts A's graph
	solveRaw(t, ts.URL, server.SolveRequest{Graph: b.ID, Algorithm: "thm1.1", Seed: 3}) // evicts A's answer
	missesBefore := serverStats(t, ts.URL).CacheMisses

	_, after, _ := solveRaw(t, ts.URL, reqA)
	if after.CacheHit || after.SolveCached {
		t.Fatalf("post-eviction solve: cacheHit=%v solveCached=%v, want a reload and a run", after.CacheHit, after.SolveCached)
	}
	if !bytes.Equal(before.Receipt, after.Receipt) {
		t.Fatalf("receipt after reload differs:\n%s\nvs\n%s", after.Receipt, before.Receipt)
	}
	st := serverStats(t, ts.URL)
	if st.Builds != 0 || st.CacheMisses != missesBefore+1 || st.SnapshotSaves != 2 {
		t.Fatalf("reload stats: builds=%d misses=%d (was %d) saves=%d", st.Builds, st.CacheMisses, missesBefore, st.SnapshotSaves)
	}
}

// TestTinyEpsilonOverHTTP: an ε that vanishes against 1 answers 400 before
// any run, streamed or not, and an ε that needs hundreds of millions of
// rounds is stopped by the solve deadline instead of holding its Runner.
func TestTinyEpsilonOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1, SolveTimeout: 500 * time.Millisecond})
	info := uploadGraph(t, ts.URL, arbods.Star(50).G)
	for _, stream := range []bool{false, true} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{Graph: info.ID, Eps: 1e-17, Stream: stream})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("ε=1e-17 stream=%v: status %d: %s", stream, resp.StatusCode, body)
		}
		if _, code := errBody(t, body); code != "run_failed" {
			t.Fatalf("ε=1e-17 stream=%v: code %q", stream, code)
		}
	}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{Graph: info.ID, Eps: 1e-8})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ε=1e-8 answered after %v, want shortly after the 500ms deadline", d)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ε=1e-8: status %d: %s", resp.StatusCode, body)
	}
	if _, code := errBody(t, body); code != "deadline_exceeded" {
		t.Fatalf("ε=1e-8: code %q", code)
	}
}
