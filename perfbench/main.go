// Command perfbench is the served-path benchmark of arbods: it starts
// internal/server in-process behind a loopback listener, drives one of
// three closed-loop workloads over HTTP, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced replay) as one JSON object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload solve-warm -seed 1 -seconds 10 -trace 0
//
// README.md explains the workloads, the metrics and what each one is
// expected to show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: solve-warm, solve-cached or ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the measured interval in seconds")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced replay instead of the end-to-end metrics")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for the run's scratch files and span output")
	flag.StringVar(&o.commit, "commit", "unknown", "git commit of the code under test, for the stamp")
	flag.Parse()
	o.dur = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	o.sizes = fullSizes

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	work     string
	commit   string
	sizes    sizes
}

// sizes fixes the input sizes and op counts of every workload. The smoke
// test shrinks them; the benchmark proper always runs fullSizes.
type sizes struct {
	warmN, warmGraphs int // solve-warm: nodes per graph, resident graphs
	cachedN           int // solve-cached: nodes per graph
	cachedGraphs      int // solve-cached: graphs, each asked under cachedSeeds seeds
	cachedSeeds       int
	ingestN           int // ingest: nodes per uploaded graph
	warmup            int // untimed warm-up ops per set-up (solve-warm, solve-cached)
	ingestWarmup      int // the same for ingest, whose ops also make their inputs
	setups            int // set-ups per invocation; setup_s is their median
	replay            int // ops replayed layer by layer in a traced run
}

var fullSizes = sizes{
	warmN: 20000, warmGraphs: 4,
	cachedN: 200000, cachedGraphs: 2, cachedSeeds: 2,
	ingestN: 20000,
	warmup:  24, ingestWarmup: 8, setups: 3, replay: 4,
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the machine, toolchain and inputs of a run.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"clients"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func newStamp(o options, clients int) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Seconds: int(o.dur / time.Second), Trace: o.trace,
		Clients: clients, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: o.commit,
	}
}

// printReport writes the stamp and a name/value/unit table ahead of the
// result line.
func printReport(w io.Writer, st stamp, res result) {
	line, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", line)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}
