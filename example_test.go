package arbods_test

import (
	"fmt"

	"arbods"
)

// ExampleWeightedDeterministic runs Theorem 1.1 on a weighted
// bounded-arboricity workload and verifies the certificate.
func ExampleWeightedDeterministic() {
	w := arbods.ForestUnion(500, 2, 7)     // arboricity ≤ 2
	g := arbods.UniformWeights(w.G, 50, 3) // weighted instance
	rep, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.25,
		arbods.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("dominating:", rep.AllDominated)
	fmt.Println("within guarantee:", rep.CertifiedRatio() <= rep.Factor)
	fmt.Println("certified:", arbods.Certify(g, rep) == nil)
	// Output:
	// dominating: true
	// within guarantee: true
	// certified: true
}

// ExampleNewRunner is the serving pattern: one reusable Runner carries the
// worker pool, the run arenas, and the message slots and buffers across
// many runs, so repeated requests — parameter sweeps, per-seed replicas,
// different algorithms, even different graphs — pay the simulator's setup
// cost once. Results are identical to transient runs.
func ExampleNewRunner() {
	w := arbods.ForestUnion(500, 2, 7)
	g := arbods.UniformWeights(w.G, 50, 3)

	r := arbods.NewRunner()
	defer r.Close()

	var weights []int64
	for seed := uint64(1); seed <= 3; seed++ {
		rep, err := arbods.WeightedRandomized(g, w.ArboricityBound, 2,
			arbods.WithSeed(seed), arbods.WithRunner(r))
		if err != nil {
			panic(err)
		}
		weights = append(weights, rep.DSWeight)
	}
	// The same Runner serves a different algorithm on the same graph…
	det, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.25,
		arbods.WithSeed(1), arbods.WithRunner(r))
	if err != nil {
		panic(err)
	}
	// …and a transient run (no Runner) produces the identical result.
	solo, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.25,
		arbods.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("runs served:", len(weights)+1)
	fmt.Println("reused == transient:", det.DSWeight == solo.DSWeight && det.Rounds() == solo.Rounds())
	fmt.Println("certified:", arbods.Certify(g, det) == nil)
	// Output:
	// runs served: 4
	// reused == transient: true
	// certified: true
}

// ExampleRunBatch is the batch pattern: a sweep of independent runs —
// here one run per seed — pipelines across a RunnerPool with bounded
// parallelism, each job writing into its own slot so the assembled
// results are bit-identical to the sequential sweep. GOMAXPROCS is split
// between concurrent runs and each run's engine workers, so the sweep
// uses the whole machine without oversubscribing it.
func ExampleRunBatch() {
	w := arbods.ForestUnion(600, 2, 7)
	g := arbods.UniformWeights(w.G, 50, 3)

	const sweeps = 6
	weights := make([]int64, sweeps)
	jobs := make([]arbods.Job, sweeps)
	for i := range jobs {
		jobs[i] = func(r *arbods.Runner, workers int) error {
			rep, err := arbods.WeightedRandomized(g, w.ArboricityBound, 2,
				arbods.WithSeed(uint64(i+1)), arbods.WithRunner(r), arbods.WithWorkers(workers))
			if err != nil {
				return err
			}
			weights[i] = rep.DSWeight
			return nil
		}
	}
	if err := arbods.RunBatch(0, jobs...); err != nil { // 0 = GOMAXPROCS in flight
		panic(err)
	}

	// The sequential reference: same seeds, one transient run each.
	same := true
	for i := 0; i < sweeps; i++ {
		rep, err := arbods.WeightedRandomized(g, w.ArboricityBound, 2,
			arbods.WithSeed(uint64(i+1)))
		if err != nil {
			panic(err)
		}
		same = same && rep.DSWeight == weights[i]
	}
	fmt.Println("runs:", sweeps)
	fmt.Println("batch == sequential:", same)
	// Output:
	// runs: 6
	// batch == sequential: true
}

// ExampleTreeThreeApprox shows the one-round Appendix A algorithm against
// the exact forest optimum.
func ExampleTreeThreeApprox() {
	w := arbods.Path(9) // 0-1-2-…-8
	rep, err := arbods.TreeThreeApprox(w.G)
	if err != nil {
		panic(err)
	}
	opt, err := arbods.ExactForest(w.G)
	if err != nil {
		panic(err)
	}
	fmt.Println("3-approx holds:", rep.DSWeight <= 3*opt.Weight)
	fmt.Println("OPT:", opt.Weight)
	// Output:
	// 3-approx holds: true
	// OPT: 3
}

// ExampleBuildLowerBound walks the Theorem 1.4 pipeline: construction,
// solve, reduction, feasibility.
func ExampleBuildLowerBound() {
	base, err := arbods.LowerBoundGadget(8, 3, 4, 3)
	if err != nil {
		panic(err)
	}
	c, err := arbods.BuildLowerBound(base)
	if err != nil {
		panic(err)
	}
	fmt.Println("arboricity-2 instance:", c.H.N() > base.N())
	rep, err := arbods.UnweightedDeterministic(c.H, 2, 0.2, arbods.WithSeed(1))
	if err != nil {
		panic(err)
	}
	y := c.ExtractFractionalVC(arbods.MembershipOf(rep))
	fmt.Println("cover feasible:", arbods.CheckFractionalVertexCover(base, y) == nil)
	// Output:
	// arboricity-2 instance: true
	// cover feasible: true
}

// ExamplePartialDominatingSet exposes Lemma 4.1's two properties directly.
func ExamplePartialDominatingSet() {
	w := arbods.ForestUnion(200, 2, 9)
	alpha, eps := 2, 0.25
	lambda := 0.8 / (float64(alpha+1) * (1 + eps))
	rep, err := arbods.PartialDominatingSet(w.G, alpha, eps, lambda, arbods.WithSeed(2))
	if err != nil {
		panic(err)
	}
	// Property (b): undominated nodes carry large packing values.
	ok := true
	for _, out := range rep.Result.Outputs {
		if !out.Dominated && out.Packing <= lambda*float64(out.Tau)*(1-1e-12) {
			ok = false
		}
	}
	fmt.Println("property (b):", ok)
	fmt.Println("packing feasible:", arbods.CheckPacking(w.G, arbods.PackingOf(rep)) == nil)
	// Output:
	// property (b): true
	// packing feasible: true
}
