// The CONGEST model, enforced: this example shows what the simulator
// checks rather than assumes — per-edge bandwidth in bits against the
// O(log n) budget (Section 2 of the paper), strict vs audit vs LOCAL
// modes, per-round and per-message-type traffic, and determinism across
// engine parallelism.
//
//	go run ./examples/congestmodel
package main

import (
	"fmt"
	"log"
	"sort"

	"arbods"
)

func main() {
	w := arbods.ForestUnion(1200, 3, 11)
	g := arbods.UniformWeights(w.G, 200, 5)

	// This example runs the same workload six times under different
	// models and worker counts — exactly the repeated-runs pattern a
	// reusable Runner is for: the worker pool, run arenas, and message
	// buffers are built once and shared by every run below.
	r := arbods.NewRunner()
	defer r.Close()

	// A strict CONGEST run with full accounting.
	rep, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r),
		arbods.WithRoundStats(), arbods.WithMessageStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict CONGEST: budget %d bits/edge/round, peak used %d — %d violations\n",
		rep.Result.Bandwidth, rep.Result.MaxEdgeBits, rep.Result.BandwidthViolations)

	fmt.Println("\nper-round traffic (round: messages, bits, active nodes):")
	for _, st := range rep.Result.RoundStats {
		fmt.Printf("  r%-3d %7d msgs %9d bits %6d active\n",
			st.Round, st.Messages, st.Bits, st.ActiveNodes)
	}

	fmt.Println("\nper-message-type traffic:")
	types := make([]string, 0, len(rep.Result.MessageStats))
	for k := range rep.Result.MessageStats {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		st := rep.Result.MessageStats[k]
		fmt.Printf("  %-18s %7d msgs %9d bits (%.1f avg)\n",
			k, st.Count, st.Bits, float64(st.Bits)/float64(st.Count))
	}

	// The same algorithm under an absurdly tight budget fails in strict
	// mode and records violations in audit mode.
	if _, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r), arbods.WithBandwidth(8)); err != nil {
		fmt.Printf("\n8-bit budget, strict mode: %v\n", err)
	}
	audit, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r), arbods.WithBandwidth(8), arbods.WithMode(arbods.CongestAudit))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-bit budget, audit mode: completed with %d violating edge-rounds\n",
		audit.Result.BandwidthViolations)

	// LOCAL mode lifts the limit entirely (the Theorem 1.4 lower bound
	// holds even there).
	local, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r), arbods.WithMode(arbods.Local))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LOCAL mode: same result (weight %d vs %d), same rounds (%d vs %d)\n",
		local.DSWeight, rep.DSWeight, local.Rounds(), rep.Rounds())

	// Determinism: 1 worker and 8 workers produce identical outputs.
	seq, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r), arbods.WithWorkers(1))
	if err != nil {
		log.Fatal(err)
	}
	par, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2,
		arbods.WithSeed(7), arbods.WithRunner(r), arbods.WithWorkers(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("determinism: sequential weight %d == parallel weight %d: %v\n",
		seq.DSWeight, par.DSWeight, seq.DSWeight == par.DSWeight)
}
