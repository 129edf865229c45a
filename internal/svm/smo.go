package svm

import (
	"context"
	"fmt"
	"math"
)

// Train fits a C-SVC model on the problem.
func Train(p *Problem, params Params) (*Model, error) {
	return TrainContext(context.Background(), p, params)
}

// TrainContext is Train with cancellation: the SMO loop polls ctx
// periodically and aborts with its error. Cancellation never alters
// results — a run that completes is bit-identical to one trained
// without a context.
func TrainContext(ctx context.Context, p *Problem, params Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := SqDistMatrix(p.X)
	return trainDist(ctx, p, params, d, nil)
}

// TrainWithDist fits a model using a precomputed squared-distance
// matrix over a superset of samples. idx maps problem rows to distance-
// matrix rows (nil means identity). This lets cross validation and grid
// search share one O(n²·dim) distance computation.
func TrainWithDist(p *Problem, params Params, dist [][]float64, idx []int) (*Model, error) {
	return trainDist(context.Background(), p, params, dist, idx)
}

// TrainWithKernel fits a model using a precomputed kernel matrix for
// params.Gamma over a superset of samples (see KernelCache). idx maps
// problem rows to kernel-matrix rows (nil means identity). Because the
// cached kernel entries are the same exp(-γ·d) values TrainWithDist
// computes, the resulting model is bit-identical.
func TrainWithKernel(ctx context.Context, p *Problem, params Params, kernel [][]float64, idx []int) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, _, err := trainKernel(ctx, p, params, kernel, idx)
	return m, err
}

func trainDist(ctx context.Context, p *Problem, params Params, dist [][]float64, idx []int) (*Model, error) {
	n := len(p.X)
	if n == 0 {
		return nil, fmt.Errorf("svm: empty problem")
	}
	if idx == nil {
		idx = identity(n)
	}
	// Kernel matrix for this gamma.
	K := newSquare(n)
	for i := 0; i < n; i++ {
		di := dist[idx[i]]
		for j := 0; j < n; j++ {
			K[i][j] = math.Exp(-params.Gamma * di[idx[j]])
		}
	}
	m, _, err := solve(ctx, p, params, K)
	return m, err
}

// trainKernel fits a model on the sub-kernel selected by idx from a
// full kernel matrix. It additionally returns, for each support vector,
// its row index in the full matrix, so cross validation can score
// held-out samples by kernel lookup instead of recomputing exp(-γ·d).
func trainKernel(ctx context.Context, p *Problem, params Params, kernel [][]float64, idx []int) (*Model, []int, error) {
	n := len(p.X)
	if n == 0 {
		return nil, nil, fmt.Errorf("svm: empty problem")
	}
	if idx == nil {
		idx = identity(n)
	}
	K := newSquare(n)
	for i := 0; i < n; i++ {
		ki := kernel[idx[i]]
		row := K[i]
		for j := 0; j < n; j++ {
			row[j] = ki[idx[j]]
		}
	}
	m, sv, err := solve(ctx, p, params, K)
	if err != nil {
		return nil, nil, err
	}
	svIdx := make([]int, len(sv))
	for i, t := range sv {
		svIdx[i] = idx[t]
	}
	return m, svIdx, nil
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// newSquare allocates an n×n matrix backed by one contiguous buffer.
func newSquare(n int) [][]float64 {
	rows := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range rows {
		rows[i] = buf[i*n : (i+1)*n]
	}
	return rows
}

// ctxCheckInterval is how many SMO iterations run between cancellation
// polls; cheap enough to be invisible, frequent enough that training
// honours a cancel within microseconds.
const ctxCheckInterval = 1024

// solve runs SMO with maximal-violating-pair selection on the dense
// kernel matrix K and assembles the model. It returns the problem-row
// indices of the support vectors alongside.
//
// We solve: min 1/2 αᵀQα - eᵀα, 0 ≤ α_i ≤ C_i, yᵀα = 0,
// where Q_ij = y_i y_j K_ij and G = Qα - e is the gradient. The loop
// keeps mg_t = -y_t·G_t rather than G and computes every value the
// textbook form would, bit for bit (DESIGN.md §8, "Solver inner loop").
func solve(ctx context.Context, p *Problem, params Params, K [][]float64) (*Model, []int, error) {
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
	// G starts at -1, so mg starts at y.
	mg := make([]float64, n)
	copy(mg, y)
	// qd is K's diagonal, contiguous for the WSS2 scan.
	qd := make([]float64, n)
	for t := range qd {
		qd[t] = K[t][t]
	}
	// up[t] (LIBSVM's I_up) marks samples whose y_t·α_t may grow, low[t]
	// (I_low) those whose y_t·α_t may shrink. Only the updated pair's
	// flags change per iteration.
	up := make([]bool, n)
	low := make([]bool, n)
	setFlags := func(t int) {
		up[t] = (y[t] > 0 && alpha[t] < cN[t]) || (y[t] < 0 && alpha[t] > 0)
		low[t] = (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < cN[t])
	}
	for t := range up {
		setFlags(t)
	}

	// i maximises mg over I_up. After the first iteration it is chosen
	// by the gradient update pass, which scans the same values in the
	// same order.
	i, gmax := -1, math.Inf(-1)
	for t, v := range mg {
		if up[t] && v > gmax {
			gmax = v
			i = t
		}
	}

	iter := 0
	for ; iter < params.MaxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		if i < 0 {
			break
		}
		// Second-order selection (LIBSVM WSS2): among violating j,
		// pick the one with the largest decrease of the objective.
		Ki := K[i][:n]
		kii, yi2 := qd[i], 2*y[i]
		j := -1
		gmin, objMin := math.Inf(1), math.Inf(1)
		for t, gt := range mg {
			if !low[t] {
				continue
			}
			if gt < gmin {
				gmin = gt
			}
			diff := gmax - gt
			if diff > 0 {
				quad := kii + qd[t] - yi2*y[t]*Ki[t]
				if quad <= 0 {
					quad = 1e-12
				}
				if obj := -diff * diff / quad; obj < objMin {
					objMin = obj
					j = t
				}
			}
		}
		if gmax-gmin < params.Eps || j < 0 {
			break
		}

		// Analytic update of the pair.
		quad := kii + qd[j] - yi2*y[j]*Ki[j]
		if quad <= 0 {
			quad = 1e-12
		}
		delta := (mg[i] - mg[j]) / quad
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
		setFlags(i)
		setFlags(j)

		// Gradient update fused with the next iteration's i-selection.
		Kj := K[j][:n]
		ydi, ydj := y[i]*dAi, y[j]*dAj
		i, gmax = -1, math.Inf(-1)
		for t, v := range mg {
			v -= Ki[t]*ydi + Kj[t]*ydj
			mg[t] = v
			if up[t] && v > gmax {
				gmax = v
				i = t
			}
		}
	}

	// Bias: average -y_t G_t over free vectors, or the KKT midpoint.
	var bSum float64
	nFree := 0
	lb, ub := math.Inf(-1), math.Inf(1)
	for t, v := range mg {
		if v == 0 {
			// Neither G nor mg ever holds -0: both start at ±1 and
			// change only by rounded sums. So where mg holds +0,
			// -y_t·G_t is -0 for y_t = +1; restore that sign for B.
			v = math.Copysign(0, -y[t])
		}
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

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
