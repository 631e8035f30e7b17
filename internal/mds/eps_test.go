package mds_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/mds"
)

// TestTinyEpsilon: an ε that vanishes against 1 is rejected up front, and
// an ε small enough to need up to quadrillions of Lemma 4.1 iterations no
// longer stalls the run before its first round: every ε-taking algorithm
// reaches a round barrier and stops at its deadline.
func TestTinyEpsilon(t *testing.T) {
	g := gen.ForestUnion(50, 1, 3).G
	algos := map[string]func(g *graph.Graph, eps float64, opts ...congest.Option) (*mds.Report, error){
		"thm3.1": func(g *graph.Graph, eps float64, opts ...congest.Option) (*mds.Report, error) {
			return mds.UnweightedDeterministic(g, 1, eps, opts...)
		},
		"thm1.1": func(g *graph.Graph, eps float64, opts ...congest.Option) (*mds.Report, error) {
			return mds.WeightedDeterministic(g, 1, eps, opts...)
		},
		"remark4.4": func(g *graph.Graph, eps float64, opts ...congest.Option) (*mds.Report, error) {
			return mds.UnknownDelta(g, 1, eps, opts...)
		},
		"remark4.5": mds.UnknownAlpha,
	}
	for name, run := range algos {
		if _, err := run(g, 1e-17); err == nil {
			t.Fatalf("%s: ε=1e-17 accepted", name)
		}
		for _, eps := range []float64{1e-8, 1e-15} {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			start := time.Now()
			_, err := run(g, eps, congest.WithContext(ctx))
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s ε=%g: err = %v, want the deadline", name, eps, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("%s ε=%g: returned after %v, want shortly after the 500ms deadline", name, eps, d)
			}
		}
	}
}
