package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arbods"
	"arbods/internal/server"
)

// FuzzSolveRequest drives arbitrary bodies through POST /v1/solve on one
// in-process server with a preloaded 40-node graph. A body whose first
// JSON value is an object has its graph reference pinned to that graph,
// because spec: references build graphs of any requested size; every
// other body is sent verbatim. Seed corpus: testdata/fuzz/FuzzSolveRequest.
//
// Invariants: the handler does not panic, returns within the solve
// deadline plus 2s, and answers 200, 400, 404, 429 or 503; errors carry
// the {error, code} envelope with a non-empty code; and a 200 carries a
// receipt for the 40-node graph (a stream ends in that result, or in the
// error line of a run that failed after its first round).
func FuzzSolveRequest(f *testing.F) {
	const deadline = 2 * time.Second
	s, err := server.New(server.Config{SolveTimeout: deadline})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	var up bytes.Buffer
	if err := arbods.EncodeGraph(&up, arbods.Grid(5, 8).G); err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", &up))
	var info server.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Nodes != 40 {
		f.Fatalf("preload: %v %s", err, rec.Body.Bytes())
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		body = pinGraph(body, info.ID)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(deadline + 2*time.Second):
			t.Fatalf("handler still running %v after the solve deadline: %s", 2*time.Second, body)
		}
		switch rec.Code {
		case http.StatusOK:
			checkSolved(t, rec, body)
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			checkErrorLine(t, rec.Body.Bytes(), body)
		default:
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// pinGraph points a body's graph reference at id when its first JSON
// value is an object (the handler decodes only that value), replacing
// every case variant of the key, since JSON field matching ignores case.
func pinGraph(body []byte, id string) []byte {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var obj map[string]any
	if dec.Decode(&obj) != nil || obj == nil {
		return body
	}
	for k := range obj {
		if strings.EqualFold(k, "graph") {
			delete(obj, k)
		}
	}
	obj["graph"] = id
	out, err := json.Marshal(obj)
	if err != nil {
		return body
	}
	return out
}

func checkErrorLine(t *testing.T, line, body []byte) {
	t.Helper()
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(line, &eb); err != nil || eb.Code == "" || eb.Error == "" {
		t.Fatalf("malformed error %q for %s (%v)", line, body, err)
	}
}

func checkSolved(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	var resp struct {
		Receipt *arbods.Receipt `json:"receipt"`
	}
	if rec.Header().Get("Content-Type") != "application/x-ndjson" {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Receipt == nil || resp.Receipt.Nodes != 40 {
			t.Fatalf("200 without a 40-node receipt for %s: %s", body, rec.Body.Bytes())
		}
		return
	}
	var last []byte
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var final struct {
		Result *struct {
			Receipt *arbods.Receipt `json:"receipt"`
		} `json:"result"`
	}
	if err := json.Unmarshal(last, &final); err != nil {
		t.Fatalf("stream for %s ends in %q: %v", body, last, err)
	}
	if final.Result == nil {
		checkErrorLine(t, last, body)
		return
	}
	if final.Result.Receipt == nil || final.Result.Receipt.Nodes != 40 {
		t.Fatalf("stream result without a 40-node receipt for %s: %s", body, last)
	}
}
