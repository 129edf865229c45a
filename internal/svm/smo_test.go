package svm

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestSMOKKTConditions verifies the solver's optimality certificate on
// a small problem: for every training point, the KKT conditions of the
// C-SVC dual must hold within the solver tolerance:
//
//	alpha_i = 0    =>  y_i f(x_i) >= 1 - eps
//	alpha_i = C_i  =>  y_i f(x_i) <= 1 + eps
//	0 < a_i < C_i  =>  |y_i f(x_i) - 1| <= eps
func TestSMOKKTConditions(t *testing.T) {
	p := blobs(100, 1.2)
	params := Params{C: 5, Gamma: 0.7, Eps: 1e-4}
	m, err := Train(p, params)
	if err != nil {
		t.Fatal(err)
	}
	// Recover alphas: coef_i = alpha_i * y_i for support vectors; non-SV
	// points have alpha 0. Rebuild per-sample alpha by matching rows.
	alpha := make([]float64, len(p.X))
	svIdx := 0
	for i := range p.X {
		if svIdx < len(m.SV) && sameVec(p.X[i], m.SV[svIdx]) {
			alpha[i] = math.Abs(m.Coef[svIdx])
			svIdx++
		}
	}
	if svIdx != len(m.SV) {
		t.Fatalf("could not align %d support vectors (got %d)", len(m.SV), svIdx)
	}
	const slack = 1e-2 // solver eps plus numerical headroom
	violations := 0
	for i := range p.X {
		yf := float64(p.Y[i]) * m.Decision(p.X[i])
		switch {
		case alpha[i] <= 1e-12:
			if yf < 1-slack {
				violations++
			}
		case alpha[i] >= params.C-1e-9:
			if yf > 1+slack {
				violations++
			}
		default:
			if math.Abs(yf-1) > slack {
				violations++
			}
		}
	}
	if violations > len(p.X)/50 {
		t.Fatalf("%d/%d KKT violations", violations, len(p.X))
	}
	// Dual feasibility: sum alpha_i y_i = 0.
	var s float64
	for _, c := range m.Coef {
		s += c
	}
	if math.Abs(s) > 1e-6 {
		t.Fatalf("sum(alpha*y) = %v, want 0", s)
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTrainDeterministic(t *testing.T) {
	p := blobs(80, 1.0)
	m1, err := Train(p, Params{C: 10, Gamma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(p, Params{C: 10, Gamma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if m1.B != m2.B || len(m1.SV) != len(m2.SV) || m1.Iters != m2.Iters {
		t.Fatal("training is not deterministic")
	}
	for i := range m1.Coef {
		if m1.Coef[i] != m2.Coef[i] {
			t.Fatal("coefficients differ between runs")
		}
	}
}

func TestTrainBoundedIterations(t *testing.T) {
	p := blobs(60, 0.05) // heavily overlapping: hard problem
	m, err := Train(p, Params{C: 1e5, Gamma: 10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters > 500 {
		t.Fatalf("solver ran %d iterations past its budget", m.Iters)
	}
}

func TestTrainRejectsBadProblems(t *testing.T) {
	if _, err := Train(&Problem{}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Train(&Problem{X: [][]float64{{1}}, Y: []int{2}}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := Train(&Problem{X: [][]float64{{1}, {1, 2}}, Y: []int{1, -1}}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("ragged features accepted")
	}
}

func TestModelJSONRoundtrip(t *testing.T) {
	p := blobs(60, 1.5)
	m, err := Train(p, Params{C: 10, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := m2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	for i := range p.X {
		if m.Decision(p.X[i]) != m2.Decision(p.X[i]) {
			t.Fatal("decision changed after JSON roundtrip")
		}
	}
	if err := m2.UnmarshalJSON([]byte(`{"coef_bits":[1],"sv_bits":[]}`)); err == nil {
		t.Fatal("inconsistent model accepted")
	}
}

// solveReference is a verbatim copy of solve before its inner loop was
// rewritten (G kept as is, the four-way y/alpha/cN branch in both
// selection passes, a separate gradient pass). It is the frozen oracle
// that TestSolveMatchesReference and FuzzSolveDifferential compare the
// production solver against bit for bit; do not edit it.
//
// It solves: min 1/2 αᵀQα - eᵀα, 0 ≤ α_i ≤ C_i, yᵀα = 0,
// where Q_ij = y_i y_j K_ij. G is the gradient Qα - e.
func solveReference(ctx context.Context, p *Problem, params Params, K [][]float64) (*Model, []int, error) {
	n := len(p.X)
	params = params.withDefaults(n)

	y := make([]float64, n)
	cN := make([]float64, n) // per-sample penalty
	for i, yi := range p.Y {
		y[i] = float64(yi)
		if yi == 1 {
			cN[i] = params.C * params.WeightPos
		} else {
			cN[i] = params.C * params.WeightNeg
		}
	}

	alpha := make([]float64, n)
	G := make([]float64, n)
	for i := range G {
		G[i] = -1
	}

	iter := 0
	for ; iter < params.MaxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		// Select the maximal violating pair (i, j).
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			if (y[t] > 0 && alpha[t] < cN[t]) || (y[t] < 0 && alpha[t] > 0) {
				if v := -y[t] * G[t]; v > gmax {
					gmax = v
					i = t
				}
			}
		}
		if i < 0 {
			break
		}
		// Second-order selection (LIBSVM WSS2): among violating j,
		// pick the one with the largest decrease of the objective.
		objMin := math.Inf(1)
		for t := 0; t < n; t++ {
			if (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < cN[t]) {
				gt := -y[t] * G[t]
				if gt < gmin {
					gmin = gt
				}
				diff := gmax - gt
				if diff > 0 {
					quad := K[i][i] + K[t][t] - 2*y[i]*y[t]*K[i][t]
					if quad <= 0 {
						quad = 1e-12
					}
					if obj := -diff * diff / quad; obj < objMin {
						objMin = obj
						j = t
					}
				}
			}
		}
		if gmax-gmin < params.Eps || j < 0 {
			break
		}

		// Analytic update of the pair.
		quad := K[i][i] + K[j][j] - 2*y[i]*y[j]*K[i][j]
		if quad <= 0 {
			quad = 1e-12
		}
		delta := (-y[i]*G[i] + y[j]*G[j]) / quad
		oldAi, oldAj := alpha[i], alpha[j]
		alpha[i] += y[i] * delta
		alpha[j] -= y[j] * delta

		// Clip to the feasible box keeping yᵀα constant.
		sum := y[i]*oldAi + y[j]*oldAj
		alpha[i] = clamp(alpha[i], 0, cN[i])
		alpha[j] = y[j] * (sum - y[i]*alpha[i])
		alpha[j] = clamp(alpha[j], 0, cN[j])
		alpha[i] = y[i] * (sum - y[j]*alpha[j])
		alpha[i] = clamp(alpha[i], 0, cN[i])

		dAi, dAj := alpha[i]-oldAi, alpha[j]-oldAj
		if dAi == 0 && dAj == 0 {
			break
		}
		for t := 0; t < n; t++ {
			G[t] += y[t] * (y[i]*K[i][t]*dAi + y[j]*K[j][t]*dAj)
		}
	}

	// Bias: average -y_t G_t over free vectors, or the KKT midpoint.
	var bSum float64
	nFree := 0
	lb, ub := math.Inf(-1), math.Inf(1)
	for t := 0; t < n; t++ {
		v := -y[t] * G[t]
		if alpha[t] > 0 && alpha[t] < cN[t] {
			bSum += v
			nFree++
		} else if (y[t] > 0 && alpha[t] == 0) || (y[t] < 0 && alpha[t] == cN[t]) {
			if v > lb {
				lb = v
			}
		} else {
			if v < ub {
				ub = v
			}
		}
	}
	var b float64
	if nFree > 0 {
		b = bSum / float64(nFree)
	} else if !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
		b = (lb + ub) / 2
	}

	m := &Model{Gamma: params.Gamma, B: b, Iters: iter}
	var sv []int
	for t := 0; t < n; t++ {
		if alpha[t] > 0 {
			m.SV = append(m.SV, p.X[t])
			m.Coef = append(m.Coef, alpha[t]*y[t])
			sv = append(sv, t)
		}
	}
	return m, sv, nil
}

// kernelOf exponentiates the full RBF kernel matrix of p.X for gamma,
// the same entries every training path feeds solve.
func kernelOf(p *Problem, gamma float64) [][]float64 {
	return NewKernelCache(SqDistMatrix(p.X), 1).Matrix(gamma)
}

// diffSolve runs solve and solveReference on one problem and reports
// the first bitwise difference between the two models: bias, dual
// coefficients, support-vector rows and iteration count.
func diffSolve(p *Problem, params Params) (got *Model, diff string) {
	K := kernelOf(p, params.Gamma)
	ctx := context.Background()
	got, gotSV, err := solve(ctx, p, params, K)
	if err != nil {
		return nil, err.Error()
	}
	want, wantSV, err := solveReference(ctx, p, params, K)
	if err != nil {
		return nil, err.Error()
	}
	switch {
	case got.Iters != want.Iters:
		return got, fmt.Sprintf("Iters %d, reference %d", got.Iters, want.Iters)
	case math.Float64bits(got.B) != math.Float64bits(want.B):
		return got, fmt.Sprintf("B %x, reference %x", math.Float64bits(got.B), math.Float64bits(want.B))
	case len(gotSV) != len(wantSV) || len(got.Coef) != len(want.Coef):
		return got, fmt.Sprintf("%d support vectors, reference %d", len(gotSV), len(wantSV))
	}
	for k := range gotSV {
		if gotSV[k] != wantSV[k] {
			return got, fmt.Sprintf("support vector %d is row %d, reference row %d", k, gotSV[k], wantSV[k])
		}
		if math.Float64bits(got.Coef[k]) != math.Float64bits(want.Coef[k]) {
			return got, fmt.Sprintf("Coef[%d] %x, reference %x", k, math.Float64bits(got.Coef[k]), math.Float64bits(want.Coef[k]))
		}
	}
	return got, ""
}

// withDuplicates appends an exact copy of every third row and a copy
// perturbed by 1e-9 in its first feature. Exact copies keep identical
// gradients; the near copies get a kernel entry that rounds to 1
// against their twin at the grid's γ ≤ 1e-3, so WSS2 meets
// quad = K_ii + K_tt - 2K_it = 0 and takes the quad ≤ 0 clamp.
func withDuplicates(p *Problem) *Problem {
	q := &Problem{X: append([][]float64(nil), p.X...), Y: append([]int(nil), p.Y...)}
	for i := 0; i < len(p.X); i += 3 {
		near := append([]float64(nil), p.X[i]...)
		near[0] += 1e-9
		q.X = append(q.X, p.X[i], near)
		q.Y = append(q.Y, p.Y[i], p.Y[i])
	}
	return q
}

// classWeights returns inverse-frequency weights as GridSearch sets
// them under WeightByClassFreq.
func classWeights(p *Problem) (wPos, wNeg float64) {
	pos, neg := p.Count()
	n := float64(pos + neg)
	return n / (2 * float64(pos)), n / (2 * float64(neg))
}

// TestSolveMatchesReference pins solve to the frozen pre-rewrite solver
// bit for bit on the shapes training meets: separable, XOR and
// overlapping data, IPAS-like 31-feature imbalanced data with class
// weights, duplicate rows (the quad ≤ 0 clamp), near-tied WSS2
// objectives, and fits that stop at MaxIter, both an explicit one and
// the 100·n default.
func TestSolveMatchesReference(t *testing.T) {
	xor := &Problem{}
	r := lcg(7)
	for len(xor.X) < 150 {
		x := []float64{r.next()*2 - 1, r.next()*2 - 1}
		y := -1
		if (x[0] > 0) != (x[1] > 0) {
			y = 1
		}
		xor.X = append(xor.X, x)
		xor.Y = append(xor.Y, y)
	}
	ipas5 := randomProblem(11, 200, 31, 0.05, false)
	ipas10 := randomProblem(12, 160, 31, 0.10, false)
	w5p, w5n := classWeights(ipas5)
	w10p, w10n := classWeights(ipas10)
	dups := withDuplicates(overlappingBlobs(60))
	ipasDups := randomProblem(13, 90, 31, 0.08, true)
	wdp, wdn := classWeights(ipasDups)

	cases := []struct {
		name   string
		p      *Problem
		params Params
		capped bool // whether the fit stops at MaxIter
	}{
		{"separable", blobs(120, 2.0), Params{C: 10, Gamma: 0.5}, false},
		{"xor", xor, Params{C: 100, Gamma: 2}, false},
		{"overlapping", overlappingBlobs(90), Params{C: 10, Gamma: 0.5}, false},
		{"overlapping/small-gamma", overlappingBlobs(90), Params{C: 1e4, Gamma: 1e-3}, true},
		{"ipas31/5pct", ipas5, Params{C: 31.6, Gamma: 0.1, WeightPos: w5p, WeightNeg: w5n}, false},
		{"ipas31/10pct", ipas10, Params{C: 3, Gamma: 1, WeightPos: w10p, WeightNeg: w10n}, false},
		{"duplicates", dups, Params{C: 100, Gamma: 1e-4}, true},
		{"duplicates/ipas31", ipasDups, Params{C: 1e3, Gamma: 1e-3, WeightPos: wdp, WeightNeg: wdn}, true},
		// One feature with duplicates: near-tied WSS2 objectives, where
		// any change to the -diff²/quad rounding picks another j.
		{"near-ties/1d", randomProblem(2, 62, 1, 0.08, true), Params{C: 1e5, Gamma: 1e-2}, true},
		{"cap/explicit", blobs(60, 0.05), Params{C: 1e5, Gamma: 10, MaxIter: 500}, true},
		{"cap/default", ipas10, Params{C: 1e5, Gamma: 1e-3, WeightPos: w10p, WeightNeg: w10n}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, diff := diffSolve(tc.p, tc.params)
			if diff != "" {
				t.Fatalf("solve diverges from the reference: %s", diff)
			}
			maxIter := tc.params.withDefaults(len(tc.p.X)).MaxIter
			if capped := m.Iters == maxIter; capped != tc.capped {
				t.Fatalf("stopped after %d of %d iterations; want capped=%v", m.Iters, maxIter, tc.capped)
			}
		})
	}
}

// randomProblem draws n samples of dim features in [0, 1], about
// posFrac of them positive with features leaning high but overlapping
// the negatives, and at least one sample of each class. With dim = 31
// and 5–10 % positives it has the shape of an IPAS training set.
func randomProblem(seed uint64, n, dim int, posFrac float64, dups bool) *Problem {
	r := lcg(seed)
	p := &Problem{}
	for i := 0; i < n; i++ {
		y := -1
		if r.next() < posFrac {
			y = 1
		}
		x := make([]float64, dim)
		for k := range x {
			x[k] = r.next()
			if y == 1 && k%2 == 0 {
				x[k] = 0.4 + 0.6*x[k]
			}
		}
		p.X = append(p.X, x)
		p.Y = append(p.Y, y)
	}
	p.Y[0], p.Y[1] = 1, -1
	if dups {
		p = withDuplicates(p)
	}
	return p
}

// FuzzSolveDifferential compares solve with the frozen reference on
// random problems: size, dimension, class balance, duplicate rows,
// (C, γ), class weights and iteration cap all come from the input.
func FuzzSolveDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(2), uint8(50), false, int8(1), int8(-1), uint16(0))
	f.Add(uint64(2), uint8(60), uint8(31), uint8(8), false, int8(5), int8(-2), uint16(0))
	f.Add(uint64(2), uint8(60), uint8(31), uint8(8), true, int8(5), int8(-2), uint16(0))
	f.Add(uint64(3), uint8(30), uint8(3), uint8(30), true, int8(2), int8(-4), uint16(0))
	f.Add(uint64(4), uint8(50), uint8(31), uint8(6), true, int8(4), int8(-3), uint16(300))
	f.Add(uint64(5), uint8(24), uint8(1), uint8(50), false, int8(5), int8(1), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, posPct uint8, dups bool, logC, logGamma int8, maxIter uint16) {
		p := randomProblem(seed, 2+int(n%62), 1+int(dim%31), float64(posPct%101)/100, dups)
		params := Params{
			C:       math.Pow(10, float64(logC%6)),
			Gamma:   math.Pow(10, float64(logGamma%6)),
			MaxIter: int(maxIter),
		}
		if seed%2 == 1 {
			params.WeightPos, params.WeightNeg = classWeights(p)
		}
		if _, diff := diffSolve(p, params); diff != "" {
			t.Fatalf("params %+v: solve diverges from the reference: %s", params, diff)
		}
	})
}
