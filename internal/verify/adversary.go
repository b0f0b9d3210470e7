package verify

import (
	"fmt"
	"sort"

	"harpte/internal/autograd"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// This file implements the adversarial traffic-matrix generator of
// ROADMAP item 5. The learned model is differentiable end to end (Rusek
// et al., arXiv 2209.10380), which cuts both ways: the same autograd that
// trains the model lets an adversary run projected gradient *ascent* on
// MLU over the demand vector, finding the traffic matrix the current
// weights route worst. Because the model's splits are a function of the
// demand but the MLU is linear in the demand for *fixed* splits, each
// outer step re-queries the model for fresh splits (re-linearization)
// and ascends the hard routing objective through a tape in which only
// the demand is a parameter. The simplex oracle then certifies the true
// optimality gap: ratio = model MLU / LP-optimal MLU on the final TM.
//
// verify sits below core in the build graph, so the generator never
// calls the model directly: callers supply a SplitsFunc closure (tests
// and tereplay pass core's Model.Splits; ECMP or any other router works
// too, making this a standing robustness benchmark for every tier).

// SplitsFunc returns the router-under-attack's F×K split matrix for a
// demand vector (F×1). Splits must be row-normalized; an error aborts
// the attack.
type SplitsFunc func(demand *tensor.Dense) (*tensor.Dense, error)

// AdversaryOptions tunes the projected-gradient-ascent attack. The zero
// value selects usable defaults.
type AdversaryOptions struct {
	// Steps is the number of outer PGA steps K (default 16). Each step
	// re-queries the router for splits and takes one ascent step.
	Steps int
	// StepSize is the ascent step relative to the mean demand (default
	// 0.5): each entry moves by at most StepSize·(total/F) per step
	// before projection.
	StepSize float64
	// Temp is the SmoothMax temperature for the ascent surrogate;
	// gradient spreads over near-maximal links. Temp <= 0 uses the hard
	// Max (single-link subgradient). Default 0.05.
	Temp float64
	// CertTol is the duality-certificate tolerance for the LP
	// certification of the final TM (default 1e-6).
	CertTol float64
}

func (o *AdversaryOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 16
	}
	if o.StepSize <= 0 {
		o.StepSize = 0.5
	}
	if o.Temp == 0 {
		o.Temp = 0.05
	}
	if o.CertTol <= 0 {
		o.CertTol = 1e-6
	}
}

// AdversarialResult reports the attack outcome.
type AdversarialResult struct {
	// Demand is the adversarial per-flow demand vector (F×1), on the
	// simplex {d >= 0, Σd = total volume of the seed}.
	Demand *tensor.Dense
	// ModelMLU is the router's MLU on Demand with fresh splits.
	ModelMLU float64
	// OptimalMLU is the LP-optimal MLU on Demand.
	OptimalMLU float64
	// Ratio is ModelMLU / OptimalMLU — the certified optimality gap the
	// adversary achieved (1.0 = the router is optimal on this TM).
	Ratio float64
	// Steps is the number of ascent steps actually taken.
	Steps int
	// CertErr is the outcome of the duality certificate on the LP
	// solution: nil means OptimalMLU carries a full optimality proof;
	// non-nil means the LP fell back to an uncertified method (e.g. the
	// problem exceeded the simplex size limit) and Ratio is only as
	// trustworthy as that solver.
	CertErr error
}

// AdversarialTM runs K steps of projected gradient ascent on MLU over
// the demand vector, starting from seed, against the router described by
// splitter. The total traffic volume is held fixed at the seed's (the
// attack redistributes demand, it does not inflate it — an attacker who
// may scale traffic arbitrarily needs no gradients). The best demand
// across all steps (by hard MLU under fresh splits) is certified against
// the simplex oracle and returned.
func AdversarialTM(p *te.Problem, seed *tensor.Dense, splitter SplitsFunc, opts AdversaryOptions) (AdversarialResult, error) {
	opts.defaults()
	F := p.NumFlows()
	if seed.Rows != F || seed.Cols != 1 {
		return AdversarialResult{}, fmt.Errorf("verify: adversary seed shape %dx%d, want %dx1", seed.Rows, seed.Cols, F)
	}
	var total float64
	for _, v := range seed.Data {
		if v < 0 {
			return AdversarialResult{}, fmt.Errorf("verify: adversary seed has negative demand %v", v)
		}
		total += v
	}
	if total <= 0 {
		return AdversarialResult{}, fmt.Errorf("verify: adversary seed has zero total volume")
	}

	K := p.Tunnels.K
	T := p.Tunnels.NumTunnels()
	flowOf := make([]int, T)
	for t := range flowOf {
		flowOf[t] = t / K
	}
	invCap := tensor.New(p.Graph.NumEdges(), 1)
	for i, e := range p.Graph.Edges {
		invCap.Data[i] = 1 / e.Capacity
	}

	d := seed.Clone()
	best := d.Clone()
	bestScore := 0.0
	bestMLU := 0.0
	maxStep := opts.StepSize * total / float64(F)
	steps := 0
	// dualGrad holds ∂optMLU/∂d_f = min_k Σ_{e∈tunnel(f,k)} λ_e, the LP
	// sensitivity derived from the capacity duals. Maximizing raw MLU
	// drifts toward demands whose bottleneck binds *every* routing (where
	// the LP is equally bad and the ratio collapses to 1), so the ascent
	// climbs log(modelMLU) − log(optMLU) instead. When the simplex engine
	// is unavailable (problem above its size limit), dualAware turns off
	// and the attack degrades to raw-MLU ascent.
	dualGrad := make([]float64, F)
	dualAware := true
	for k := 0; k < opts.Steps; k++ {
		w, err := splitter(d)
		if err != nil {
			return AdversarialResult{}, fmt.Errorf("verify: adversary splitter: %w", err)
		}
		if w.Rows != F || w.Cols != K {
			return AdversarialResult{}, fmt.Errorf("verify: adversary splits shape %dx%d, want %dx%d", w.Rows, w.Cols, F, K)
		}
		modelMLU := p.MLU(w, d)
		optMLU := 0.0
		if dualAware {
			sol, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"})
			if err != nil || sol.LinkDuals == nil || sol.MLU <= 0 {
				dualAware = false
			} else {
				optMLU = sol.MLU
				flowDualGradients(p, sol.LinkDuals, dualGrad)
			}
		}
		score := modelMLU
		if optMLU > 0 {
			score = modelMLU / optMLU
		}
		if score > bestScore {
			bestScore, bestMLU = score, modelMLU
			copy(best.Data, d.Data)
		}

		// Re-linearize: with splits fixed, MLU is linear in demand.
		// Build a tape in which only the demand is a parameter.
		tp := autograd.NewTape()
		dParam := autograd.NewParam(d)
		wCol := tensor.New(T, 1)
		copy(wCol.Data, w.Data) // row-major F×K flattens to the f*K+k tunnel order
		dT := tp.GatherRows(dParam, flowOf)
		x := tp.Mul(dT, tp.Const(wCol))
		loss := te.LossMLU(tp, p, x, tp.Const(invCap), opts.Temp)
		tp.Backward(loss)

		// Ascent direction: ∇log modelMLU − ∇log optMLU (log-ratio), or
		// plain ∇modelMLU without duals. Normalize to the inf-norm and
		// project back onto the simplex.
		grad := dParam.Grad.Data
		if lossVal := loss.Val.Data[0]; dualAware && lossVal > 0 && optMLU > 0 {
			for i := range grad {
				grad[i] = grad[i]/lossVal - dualGrad[i]/optMLU
			}
		}
		var gmax float64
		for _, gv := range grad {
			if gv > gmax {
				gmax = gv
			} else if -gv > gmax {
				gmax = -gv
			}
		}
		if gmax == 0 {
			break // flat objective: nothing left to ascend
		}
		for i := range d.Data {
			d.Data[i] += maxStep * grad[i] / gmax
		}
		ProjectSimplex(d.Data, total)
		steps++
	}
	// Evaluate the final iterate too.
	if w, err := splitter(d); err == nil {
		modelMLU := p.MLU(w, d)
		score := modelMLU
		if dualAware {
			if sol, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"}); err == nil && sol.MLU > 0 {
				score = modelMLU / sol.MLU
			}
		}
		if score > bestScore {
			bestScore, bestMLU = score, modelMLU
			copy(best.Data, d.Data)
		}
	}

	res := AdversarialResult{Demand: best, ModelMLU: bestMLU, Steps: steps}
	sol, err := lp.SolveWithOptions(p, best, lp.Options{Method: "simplex"})
	if err != nil {
		// Outside the simplex engine's reach: fall back to the default
		// solver chain and report the missing certificate.
		sol = lp.Solve(p, best)
		res.CertErr = fmt.Errorf("verify: adversary certificate unavailable: %w", err)
	} else {
		res.CertErr = DualityCertificate(p, best, sol, opts.CertTol)
	}
	res.OptimalMLU = sol.MLU
	if sol.MLU > 0 {
		res.Ratio = bestMLU / sol.MLU
	}
	return res, nil
}

// flowDualGradients fills out[f] with min_k Σ_{e∈tunnel(f,k)} λ_e — the
// LP sensitivity of the optimal MLU to flow f's demand (by strong
// duality, optMLU = Σ_f d_f·c_f at the optimum, so c_f is a
// supergradient of optMLU in d_f).
func flowDualGradients(p *te.Problem, linkDuals []float64, out []float64) {
	for f := range p.Tunnels.Flows {
		best := 0.0
		for k := 0; k < p.Tunnels.K; k++ {
			var length float64
			for _, e := range p.Tunnels.Tunnel(f, k).Edges {
				length += linkDuals[e]
			}
			if k == 0 || length < best {
				best = length
			}
		}
		out[f] = best
	}
}

// ProjectSimplex projects v in place onto the scaled simplex
// {x : x >= 0, Σx = total} in Euclidean norm, the standard
// sort-and-threshold algorithm (Held/Wolfe/Crowder). total must be
// positive.
func ProjectSimplex(v []float64, total float64) {
	if len(v) == 0 {
		return
	}
	sorted := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cum, theta float64
	rho := -1
	for i, u := range sorted {
		cum += u
		if u-(cum-total)/float64(i+1) > 0 {
			rho = i
			theta = (cum - total) / float64(i+1)
		}
	}
	if rho < 0 {
		// Unreachable for total > 0 (i=0 always passes), but keep the
		// projection total-preserving regardless.
		uniform := total / float64(len(v))
		for i := range v {
			v[i] = uniform
		}
		return
	}
	for i := range v {
		x := v[i] - theta
		if x < 0 {
			x = 0
		}
		v[i] = x
	}
}
