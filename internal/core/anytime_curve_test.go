package core

// The quality-vs-budget curve of the anytime engine, as a committed
// artefact: testdata/anytime_curve.csv is what a deadline that stops the RAU
// after k iterations costs in NormMLU (served MLU over the LP optimum), on
// the benchmark's weights, against ECMP — the answer a request gets when no
// iteration finished. The serving stack's decisions rest on three facts this
// test reads back from the file and pins.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
)

const anytimeCurveFile = "testdata/anytime_curve.csv"

// curveWiggle is how far the median may rise from one iteration to the
// next. The curve falls steeply to k ≈ 4 and is flat after it, and on the
// flat part it is not strictly monotone: GEANT's median moves by up to
// 0.002 either way between neighbouring k, well inside the benchmark's 1 %
// bound on norm_mlu_p50.
const curveWiggle = 0.005

// curveDemands is a fixed-seed TM set on g in the benchmark's recipe
// (bench/workloads.go demandPool): gravity model over a diurnal cycle,
// lognormal noise, capped to the access links.
func curveDemands(p *te.Problem, n int) []*tensor.Dense {
	g := p.Graph
	var capacity float64
	for _, e := range g.Edges {
		capacity += e.Capacity
	}
	cfg := traffic.SeriesConfig{Total: 0.25 * capacity, DiurnalPeriod: 48, DiurnalAmplitude: 0.3, NoiseSigma: 0.3}
	// Eight-TM series from seeds 1, 9, …: the head of the benchmark's
	// seed-1 stream, which is also the head of its pinned quality set.
	out := make([]*tensor.Dense, 0, n)
	for len(out) < n {
		for _, tm := range traffic.Series(g, min(8, n-len(out)), cfg, 1+int64(len(out))) {
			out = append(out, traffic.DemandVector(traffic.CapToAccess(tm, g, 0.35), p.Tunnels.Flows))
		}
	}
	return out
}

// TestAnytimeCurve regenerates testdata/anytime_curve.csv — per topology,
// NormMLU p50/p90/max over 16 TMs of the model stopped after k = 0…N RAU
// iterations, and of ECMP — and pins what the serving stack relies on:
// from k = 1 a further iteration never costs more than curveWiggle at the
// median (a later deadline does not buy a worse answer), from k = 2 even the
// worst TM beats ECMP's worst, and at k = 0 the model does not beat ECMP on
// the topology it was not trained on — which is why SplitsCtx returns
// nothing there.
func TestAnytimeCurve(t *testing.T) {
	if testing.Short() || tensor.RaceEnabled {
		t.Skip("solves 32 LPs: 6 s, a minute under -race")
	}
	m := benchModel(t)
	n := m.Cfg.RAUIterations

	var out bytes.Buffer
	w := csv.NewWriter(&out)
	w.Write([]string{"topology", "k", "norm_mlu_p50", "norm_mlu_p90", "norm_mlu_max"})
	for _, g := range []*topology.Graph{topology.Abilene(), topology.Geant()} {
		p := allPairsProblem(g)
		ctx := m.Context(p)
		demands := curveDemands(p, 16)
		opt := make([]float64, len(demands))
		var wg sync.WaitGroup
		for i, d := range demands {
			wg.Add(1)
			go func(i int, d *tensor.Dense) {
				defer wg.Done()
				opt[i] = lp.Solve(p, d).MLU
			}(i, d)
		}
		wg.Wait()
		row := func(k string, splits func(d *tensor.Dense) *tensor.Dense) {
			norm := make([]float64, len(demands))
			for i, d := range demands {
				norm[i] = p.MLU(splits(d), d) / opt[i]
			}
			sort.Float64s(norm)
			q := func(share float64) string {
				return strconv.FormatFloat(norm[int(share*float64(len(norm)-1)+0.5)], 'f', 4, 64)
			}
			w.Write([]string{g.Name, k, q(0.5), q(0.9), q(1)})
		}
		ecmp := te.NormalizeRows(te.Rescale(p, p.UniformSplits()))
		row("ecmp", func(*tensor.Dense) *tensor.Dense { return ecmp })
		for k := 0; k <= n; k++ {
			// The same weights at depth k: bit for bit what SplitsCtx
			// returns when stopped there
			// (TestSplitsCtxBitIdenticalAtEveryStop).
			stopped := m.shadow()
			stopped.Cfg.RAUIterations = k
			row(strconv.Itoa(k), func(d *tensor.Dense) *tensor.Dense { return stopped.Splits(ctx, d) })
		}
	}
	w.Flush()
	if old, _ := os.ReadFile(anytimeCurveFile); !bytes.Equal(old, out.Bytes()) {
		if err := os.WriteFile(anytimeCurveFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten", anytimeCurveFile)
	}

	// The pins read the committed artefact, not the numbers above.
	cf, err := os.Open(anytimeCurveFile)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	records, err := csv.NewReader(cf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	type stats struct{ p50, p90, max float64 }
	curve := map[string]map[string]stats{}
	for _, r := range records[1:] {
		var s stats
		for i, dst := range []*float64{&s.p50, &s.p90, &s.max} {
			if *dst, err = strconv.ParseFloat(r[2+i], 64); err != nil {
				t.Fatal(err)
			}
		}
		if curve[r[0]] == nil {
			curve[r[0]] = map[string]stats{}
		}
		curve[r[0]][r[1]] = s
	}
	for _, name := range []string{"Abilene", "GEANT"} {
		c, ok := curve[name]
		if !ok || len(c) != n+2 {
			t.Fatalf("%s: %d rows, want ecmp and k = 0…%d", name, len(c), n)
		}
		ecmp := c["ecmp"]
		for k := 1; k <= n; k++ {
			cur := c[strconv.Itoa(k)]
			if prev := c[strconv.Itoa(k-1)]; k > 1 && cur.p50 > prev.p50+curveWiggle {
				t.Errorf("%s: p50 rises from k=%d to k=%d (%v → %v): a later deadline buys a worse answer", name, k-1, k, prev.p50, cur.p50)
			}
			if k >= 2 && cur.max >= ecmp.max {
				t.Errorf("%s k=%d: worst TM %v does not beat ECMP's %v", name, k, cur.max, ecmp.max)
			}
		}
	}
	if k0, ecmp := curve["GEANT"]["0"], curve["GEANT"]["ecmp"]; k0.p50 < ecmp.p50 {
		t.Errorf("GEANT k=0: p50 %v beats ECMP's %v — MLP1 alone would be an answer, and SplitsCtx discards it", k0.p50, ecmp.p50)
	}
	if testing.Verbose() {
		fmt.Print(out.String())
	}
}
