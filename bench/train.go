package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// weightsPath is where -train-weights writes, relative to the repo root.
const weightsPath = "bench/testdata/harp_abilene.model"

// trainWeights trains core.DefaultConfig() on Abilene traffic drawn the
// way the workloads draw it (48 train + 8 validation TMs, seed 1, ten
// epochs) and writes the model to weightsPath. Training is deterministic,
// so rerunning it reproduces the committed file bit for bit.
func trainWeights(log io.Writer) error {
	g := topology.Abilene()
	set := tunnels.Compute(g, tunnelsPerFlow)
	p := te.NewProblem(g, set)
	m := core.New(core.DefaultConfig())
	ctx := m.Context(p)
	var train, val []core.Sample
	for i, d := range demandPool(g, set.Flows, 56, 1) {
		s := core.Sample{Ctx: ctx, Demand: d}
		if i < 48 {
			train = append(train, s)
		} else {
			val = append(val, s)
		}
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 10
	tc.Log = log
	res := m.Fit(train, val, tc)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	if err := os.WriteFile(weightsPath, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write weights (run from the repo root): %w", err)
	}
	fmt.Fprintf(log, "best validation MLU %.4f; wrote %s\nweightsSHA256 = %x\n",
		res.BestValMLU, weightsPath, sha256.Sum256(buf.Bytes()))
	return nil
}
