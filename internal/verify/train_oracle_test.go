package verify_test

// Bit-level pins on training. HARP, DOTE and TEAL share one training
// protocol (autograd's guarded Adam step, snapshots and epoch loop, te's
// differentiable MLU); these hashes say that the arithmetic every trained
// weight comes out of has not moved by one bit. A change that means to move
// it updates the pins and says why.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/core"
	"harpte/internal/dote"
	"harpte/internal/te"
	"harpte/internal/teal"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

// paramsHash is FNV-64a over the IEEE-754 bits of every parameter, in order.
func paramsHash(params []*autograd.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		for _, v := range p.Val.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainedWeightsPinned trains each scheme briefly on Abilene (K=3,
// six training and two validation gravity TMs, the second training sample
// with a different loss demand) and pins the hash of the weights Fit keeps.
func TestTrainedWeightsPinned(t *testing.T) {
	g := topology.Abilene()
	p := te.NewProblem(g, tunnels.Compute(g, 3))
	demands := make([]*tensor.Dense, 8)
	for i := range demands {
		demands[i] = adversarySeedDemand(p, 300+40*float64(i), int64(100+i))
	}
	trainD, valD := demands[:6], demands[6:]

	want := map[string]uint64{
		"HARP Fit workers=1": 0x0aba804c032d5061,
		"HARP Fit workers=2": 0x0c059298d20b9afb,
		"DOTE Fit":           0x03c15ca066b98969,
		"DOTE FitSeries":     0x8b3289f0e79c5417,
		"TEAL Fit direct":    0xe9c787d79d1108c5,
		"TEAL Fit REINFORCE": 0x4a25a3c695dd4716,
	}
	check := func(name string, params []*autograd.Tensor) {
		t.Helper()
		if got := paramsHash(params); got != want[name] {
			t.Errorf("%s: params FNV-64a = %#016x, want %#016x", name, got, want[name])
		}
	}

	for _, workers := range []int{1, 2} {
		m := oracleModel()
		ctx := m.Context(p)
		samples := func(ds []*tensor.Dense) []core.Sample {
			out := make([]core.Sample, len(ds))
			for i, d := range ds {
				out[i] = core.Sample{Ctx: ctx, Demand: d}
			}
			return out
		}
		train := samples(trainD)
		train[1].LossDemand = demands[0]
		m.Fit(train, samples(valD), core.TrainConfig{Epochs: 2, LR: 2e-3, BatchSize: 4, GradClip: 5, Seed: 7, Workers: workers})
		check(fmt.Sprintf("HARP Fit workers=%d", workers), m.Params())
	}

	doteCfg := dote.DefaultConfig()
	doteCfg.Hidden = []int{24}
	dm := dote.New(doteCfg, p.NumFlows(), p.Tunnels.K)
	doteSamples := func(ds []*tensor.Dense) []dote.Sample {
		out := make([]dote.Sample, len(ds))
		for i, d := range ds {
			out[i] = dote.Sample{Problem: p, Demand: d}
		}
		return out
	}
	doteTrain := doteSamples(trainD)
	doteTrain[1].LossDemand = demands[0]
	dm.Fit(doteTrain, doteSamples(valD), 3, 3e-3, 4, 7)
	check("DOTE Fit", dm.Params())

	hm := dote.NewHistory(doteCfg, p.NumFlows(), p.Tunnels.K, 2)
	hm.FitSeries(p, demands, 3, 3e-3, 7)
	check("DOTE FitSeries", hm.Params())

	for _, rl := range []bool{false, true} {
		cfg := teal.DefaultConfig()
		cfg.RL = rl
		m := teal.New(cfg, p.Tunnels.K)
		ctx := m.NewContext(p)
		samples := func(ds []*tensor.Dense) []teal.Sample {
			out := make([]teal.Sample, len(ds))
			for i, d := range ds {
				out[i] = teal.Sample{Ctx: ctx, Demand: d}
			}
			return out
		}
		train := samples(trainD)
		train[1].LossDemand = demands[0]
		m.Fit(train, samples(valD), 3, 3e-3, 4, 7)
		name := "TEAL Fit direct"
		if rl {
			name = "TEAL Fit REINFORCE"
		}
		check(name, m.Params())
	}
}

// TestAdversarialDemandPinned pins the demand AdversarialTM returns on the
// fixtures of TestAdversarialTMCertifiedGap (smooth max) and
// TestAdversarialTMAgainstECMP (here with the hard max).
func TestAdversarialDemandPinned(t *testing.T) {
	g := topology.Abilene()
	p := te.NewProblem(g, tunnels.Compute(g, 3))
	seed := adversarySeedDemand(p, 400, 3)

	m := oracleModel()
	c := m.Context(p)
	harp := func(d *tensor.Dense) (*tensor.Dense, error) { return m.Splits(c, d), nil }
	uniform := te.NormalizeRows(te.Rescale(p, p.UniformSplits()))
	ecmp := func(*tensor.Dense) (*tensor.Dense, error) { return uniform, nil }

	for _, tc := range []struct {
		name     string
		splitter verify.SplitsFunc
		opts     verify.AdversaryOptions
		want     uint64
	}{
		{"HARP smooth max", harp, verify.AdversaryOptions{Steps: 16, StepSize: 0.5}, 0x3b80a3a63c2e4fbc},
		{"ECMP hard max", ecmp, verify.AdversaryOptions{Steps: 8, StepSize: 0.5, Temp: -1}, 0x1aa0b501ae17b6dd},
	} {
		res, err := verify.AdversarialTM(p, seed, tc.splitter, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := paramsHash([]*autograd.Tensor{autograd.NewConst(res.Demand)})
		if got != tc.want {
			t.Errorf("%s: demand FNV-64a = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
