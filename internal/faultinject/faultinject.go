// Package faultinject provides deterministic, seeded fault injection for
// the serving stack's chaos tests. Production code declares named
// failpoints by calling Fire on a *Registry it was handed; a nil Registry
// makes every Fire a no-op costing one nil check, so the seams are
// build-tag-free and effectively free when injection is off. Tests arm
// faults against those names and get reproducible failures: a panic at
// round k, a slow round, a failing build, a snapshot write error —
// whatever the armed Fault describes, firing in a deterministic order
// governed by hit counts (and, for probabilistic arms, by the Registry's
// seed), never by wall-clock races.
//
// Failpoint names used by this repository:
//
//	congest.step      fired once per round by the engine's step phase
//	                  (shard 0, so on a worker goroutine when parallel);
//	                  round-aware
//	server.build      fired by the solve path's graph-load leader just
//	                  before a cold graph build
//	server.admit      fired by the solve path just before admission
//	persist.writeBlob fired before a snapshot blob is renamed into place
//	persist.writeIndex fired before the snapshot index is rewritten
//	peer.<host:port>  fired by Transport before every HTTP request to that
//	                  peer (cluster proxying, health probes, snapshot
//	                  fetches, and any client wired through Transport)
package faultinject

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Fault describes what happens when an armed failpoint fires.
//
// Matching: the fault matches a Fire at its point after After matching
// invocations have been skipped, and stops matching after it has fired
// Times times (Times ≤ 0 means once). A fault with Round ≥ 0 matches only
// a FireRound call with exactly that round (never a round-free Fire);
// Round < 0 matches any call. Matching is by invocation count, so a
// rerun of the same test arms and fires identically.
//
// Action, applied in order when the fault fires: sleep Delay (a slow
// round / slow write), then panic with Panic if non-nil (the injected
// proc panic), then return Err (a build or snapshot failure; nil Err with
// nil Panic makes Delay-only faults possible).
type Fault struct {
	Round int // FireRound only: required round, -1 = any
	After int // skip the first After matching invocations
	Times int // fire at most Times times (≤ 0 = once)

	Delay time.Duration // sleep before acting
	Panic any           // non-nil: panic(Panic) after Delay
	Err   error         // returned by Fire after Delay (when Panic is nil)
}

// armed is one armed fault plus its live matching state.
type armed struct {
	f       Fault
	skipped int
	fired   int
}

// Registry is a set of named failpoints. The zero value is ready to use;
// a nil *Registry is also valid and never fires (the production state).
// All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	seed  uint64
	state uint64 // seeded PCG-style stream for probabilistic arms
	arms  map[string][]*armed
	hits  map[string]int
}

// New returns a Registry whose probabilistic decisions derive from seed,
// so an armed probability fires on the same Fire sequence every run.
func New(seed uint64) *Registry {
	return &Registry{seed: seed, state: seed*0x9E3779B97F4A7C15 + 1}
}

// Arm registers f at the named failpoint. Multiple faults may be armed at
// one point; they are evaluated in arm order and the first match fires.
func (r *Registry) Arm(point string, f Fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.arms == nil {
		r.arms = make(map[string][]*armed)
	}
	r.arms[point] = append(r.arms[point], &armed{f: f})
}

// Reset disarms every failpoint and clears the hit counts; the seed (and
// the probabilistic stream) is preserved.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arms = nil
	r.hits = nil
}

// Hits reports how many times the named failpoint has been reached
// (fired or not) — the observability half of the harness: a chaos test
// asserts both that the fault fired and that the seam was actually on
// the executed path.
func (r *Registry) Hits(point string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}

// Fire evaluates the named failpoint outside any round context. A nil
// Registry never fires. If an armed fault matches, Fire sleeps its Delay,
// panics with its Panic if set, and otherwise returns its Err.
func (r *Registry) Fire(point string) error {
	return r.FireRound(point, -1)
}

// FireRound is Fire for round-aware failpoints: an armed fault with
// Round ≥ 0 matches only when round equals it.
func (r *Registry) FireRound(point string, round int) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.hits == nil {
		r.hits = make(map[string]int)
	}
	r.hits[point]++
	var hit *Fault
	for _, a := range r.arms[point] {
		times := a.f.Times
		if times <= 0 {
			times = 1
		}
		if a.fired >= times {
			continue
		}
		if a.f.Round >= 0 && round != a.f.Round {
			continue
		}
		if a.skipped < a.f.After {
			a.skipped++
			continue
		}
		a.fired++
		f := a.f
		hit = &f
		break
	}
	r.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Delay > 0 {
		time.Sleep(hit.Delay)
	}
	if hit.Panic != nil {
		panic(hit.Panic)
	}
	return hit.Err
}

// Chance returns a deterministic pseudo-random decision with the given
// probability, advancing the Registry's seeded stream: the k-th Chance
// call after New(seed) answers identically on every run. It exists for
// chaos tests that want "fail some fraction of operations" without
// wall-clock nondeterminism; a nil Registry always answers false.
func (r *Registry) Chance(p float64) bool {
	if r == nil || p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	r.mu.Lock()
	// splitmix64 step: full-period, seed-determined, dependency-free.
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	r.mu.Unlock()
	return float64(z>>11)/float64(1<<53) < p
}

// ErrInjected is a convenience error for arms that only need "some
// failure" — tests can assert on it with errors.Is.
var ErrInjected = fmt.Errorf("faultinject: injected failure")

// ErrBlackhole, armed as a Fault's Err at a peer seam, makes Transport
// hang until the request's context is done instead of failing fast — a
// network partition rather than a connection refusal. The caller sees
// its own context error, exactly as if the packets had vanished.
var ErrBlackhole = errors.New("faultinject: blackholed")

// Transport is an http.RoundTripper with a per-peer failpoint seam:
// every outgoing request fires "peer.<host:port>" before reaching Base,
// so a chaos test can blackhole, fail, or slow one daemon's link while
// the rest of the cluster stays clean. Faults compose the usual way —
// Delay models link latency, Err a refused connection, ErrBlackhole a
// partition (the request hangs until its context dies; arm it with a
// large Times so the partition persists). A nil Reg forwards untouched.
type Transport struct {
	Base http.RoundTripper // nil = http.DefaultTransport
	Reg  *Registry
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.Reg.Fire("peer." + req.URL.Host); err != nil {
		if errors.Is(err, ErrBlackhole) {
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		return nil, err
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}
