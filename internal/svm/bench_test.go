package svm

import (
	"context"
	"fmt"
	"testing"
)

// benchGridProblem is the grid-search benchmark dataset: two separable
// classes, large enough that kernel exponentiation is the dominant
// serial cost (as it is on the paper's feature vectors).
func benchGridProblem() *Problem {
	r := lcg(17)
	p := &Problem{}
	for i := 0; i < 640; i++ {
		y := 1
		c := 2.0
		if i%3 == 0 {
			y = -1
			c = -2.0
		}
		p.X = append(p.X, []float64{
			c + (r.next() - 0.5),
			c + (r.next() - 0.5),
			r.next(),
		})
		p.Y = append(p.Y, y)
	}
	return p
}

// benchGridSpec bounds SMO at 300 iterations so hopeless corners of
// the grid (γ→0 kernels that never separate) cost the same in every
// variant being compared. That cap is why kernel work dominates this
// benchmark; at the default cap of 100·n iterations SMO itself
// dominates, which BenchmarkSolve measures.
func benchGridSpec() GridSpec {
	spec := PaperGrid()
	spec.WeightByClassFreq = true
	spec.MaxIter = 300
	return spec
}

// BenchmarkGridSearch measures the paper-scale 500-point (C, γ) search.
// serial-baseline is the pre-pipeline implementation (one goroutine,
// per-fold kernel exponentiation, rbf predictions); the workers-N
// variants run the pooled search with the per-γ kernel cache. All
// variants produce bit-identical rankings.
func BenchmarkGridSearch(b *testing.B) {
	p := benchGridProblem()
	spec := benchGridSpec()

	b.Run("serial-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := serialReferenceSearch(p, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 8} {
		// key=value naming, not workers-8: a trailing -digits group
		// would be indistinguishable from go test's -GOMAXPROCS name
		// suffix, which benchdiff strips to compare across machines.
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GridSearchContext(context.Background(), p, spec, SearchOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelCache isolates the cache's unit of work: producing the
// kernel matrix for one γ. miss exponentiates the distance matrix;
// hit returns the memoized rows (the state all but 1 of the ~125
// same-γ requests on the paper grid are served from).
func BenchmarkKernelCache(b *testing.B) {
	p := benchGridProblem()
	dist := SqDistMatrix(p.X)

	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewKernelCache(dist, 1)
			if rows := c.Matrix(0.1); len(rows) != len(dist) {
				b.Fatal("bad matrix")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := NewKernelCache(dist, 1)
		c.Matrix(0.1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := c.Matrix(0.1); len(rows) != len(dist) {
				b.Fatal("bad matrix")
			}
		}
	})
}

// BenchmarkSolve measures one SMO fit the way the IPAS grid search
// spends most of its time: 280 samples of 31 features in [0, 1], 7 %
// positives with inverse-frequency class weights, the default
// iteration cap (100·n = 28,000) and a large C that runs into it.
// The kernel matrix is built outside the timer.
func BenchmarkSolve(b *testing.B) {
	p := randomProblem(5, 280, 31, 0.07, false)
	wPos, wNeg := classWeights(p)
	params := Params{C: 1e4, Gamma: 0.01, WeightPos: wPos, WeightNeg: wNeg}
	K := kernelOf(p, params.Gamma)
	maxIter := params.withDefaults(len(p.X)).MaxIter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := solve(context.Background(), p, params, K)
		if err != nil {
			b.Fatal(err)
		}
		if m.Iters != maxIter {
			b.Fatalf("fit converged after %d iterations; the benchmark needs one that stops at the cap of %d", m.Iters, maxIter)
		}
	}
}
