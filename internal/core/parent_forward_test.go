package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"harpte/internal/te"
	"harpte/internal/topology"
)

// parentSplitsHash is the FNV-64a of the Float64bits of Splits over four
// benchmark-recipe TMs on all-pairs Abilene and GEANT under the benchmark's
// weights, computed at commit 47d2264 — the last one whose embed gathered
// the token rows before SETTRANS projected them. The old forward cannot
// stay beside the new one, so this constant is what is left of it.
var parentSplitsHash = map[string]uint64{
	"Abilene": 0x30d3048f9487325c,
	"GEANT":   0x848c60807f16b8e1,
}

// benchModel loads the benchmark's weights (bench/testdata), trained on
// Abilene only.
func benchModel(t *testing.T) *Model {
	t.Helper()
	f, err := os.Open("../../bench/testdata/harp_abilene.model")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func splitsHash(m *Model, p *te.Problem) uint64 {
	ctx := m.Context(p)
	h := fnv.New64a()
	var b [8]byte
	for _, d := range curveDemands(p, 4) {
		for _, v := range m.Splits(ctx, d).Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSplitsEqualParentForward: projecting E+1 rows and gathering the
// products is the same arithmetic per token as gathering and projecting, so
// a request's answer is the parent commit's to the last bit.
func TestSplitsEqualParentForward(t *testing.T) {
	m := benchModel(t)
	for _, g := range []*topology.Graph{topology.Abilene(), topology.Geant()} {
		if got := splitsHash(m, allPairsProblem(g)); got != parentSplitsHash[g.Name] {
			t.Errorf("%s: Splits hash %#x, parent %#x", g.Name, got, parentSplitsHash[g.Name])
		}
	}
}
