package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// smokeSizes shrinks every workload so the whole matrix runs in seconds.
var smokeSizes = sizes{
	warmN: 2000, warmGraphs: 2,
	cachedN: 5000, cachedGraphs: 2, cachedSeeds: 2,
	ingestN: 2000,
	warmup:  4, ingestWarmup: 2, setups: 2, replay: 2,
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (workloads []string, e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloads, e2e, layers
}

func smokeRun(t *testing.T, workload string, trace bool) result {
	t.Helper()
	o := options{workload: workload, seed: 7, dur: 300 * time.Millisecond, trace: trace, work: t.TempDir(), sizes: smokeSizes}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks each emits exactly the metrics BENCHMARK.json declares, by name
// and unit, and that the traced run's exact counts repeat run to run.
func TestEveryMetricEmitted(t *testing.T) {
	workloads, e2e, layers := declared(t)
	for _, w := range workloads {
		for _, tc := range []struct {
			trace bool
			want  map[string]string
		}{{false, e2e}, {true, layers}} {
			res := smokeRun(t, w, tc.trace)
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, tc.trace, len(res.Metrics), len(tc.want))
			}
			for name, unit := range tc.want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, tc.trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w, tc.trace, name, m.Unit, unit)
				}
			}
			if !tc.trace {
				continue
			}
			again := smokeRun(t, w, true)
			for _, name := range []string{"congest.rounds", "congest.messages", "congest.bits", "congest.solve_allocs",
				"server.solve_cache.hit_ratio", "server.graph_cache.hit_ratio", "server.builds"} {
				if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: count %s is %v, then %v on the same seed", w, name, a, b)
				}
			}
		}
	}
}

// TestUnknownWorkload pins that a bad name fails before any work.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", work: t.TempDir(), sizes: smokeSizes}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
