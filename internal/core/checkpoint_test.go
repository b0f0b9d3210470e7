package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/chaos"
	"harpte/internal/te"
)

// checkpointSamples builds a small deterministic training set on p.
func checkpointSamples(m *Model, p *te.Problem, n int) []Sample {
	ctx := m.Context(p)
	out := make([]Sample, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, Sample{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{
			{0, 1}: float64(i), {1, 0}: float64(n - i + 1),
		})})
	}
	return out
}

func mustSaveCheckpoint(t *testing.T, path string, ck *Checkpoint) {
	t.Helper()
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	ck := &Checkpoint{
		Cfg:        tinyConfig(),
		Params:     [][]float64{{1, 2, 3}, {4}},
		Epoch:      7,
		Seed:       42,
		RNGDraws:   7,
		NumTrain:   12,
		BestValMLU: 1.25,
		TrainLoss:  []float64{3, 2, 1},
	}
	path := filepath.Join(t.TempDir(), "ck")
	mustSaveCheckpoint(t, path, ck)
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if got.Epoch != 7 || got.Seed != 42 || got.NumTrain != 12 || got.BestValMLU != 1.25 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if len(got.Params) != 2 || got.Params[0][1] != 2 {
		t.Fatalf("params mismatch: %+v", got.Params)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
}

func TestCheckpointDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: tinyConfig(), Epoch: 3})
	if err := chaos.TruncateFile(path, -7); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint: want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestCheckpointDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: tinyConfig(), Epoch: 3, Params: [][]float64{{1, 2, 3}}})
	// Flip a bit deep in the payload, where raw gob would decode garbage.
	if err := chaos.CorruptFile(path, -5, 3); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bit-flipped checkpoint: want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestCheckpointDetectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: tinyConfig()})
	if err := chaos.CorruptFile(path, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bad magic: want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestCheckpointRejectsNewerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: tinyConfig()})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version is the big-endian uint32 right after the 8-byte magic.
	data[8], data[9], data[10], data[11] = 0, 0, 0, 99
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future version: want newer-version error, got %v", err)
	}
}

func TestCheckpointTornStreamRejected(t *testing.T) {
	var full bytes.Buffer
	if err := WriteCheckpoint(&full, &Checkpoint{Cfg: tinyConfig(), Params: [][]float64{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	var torn bytes.Buffer
	w := &chaos.TruncatingWriter{W: &torn, Limit: int64(full.Len() / 2)}
	// The writer reports success while dropping the tail — the crash model.
	if err := WriteCheckpoint(w, &Checkpoint{Cfg: tinyConfig(), Params: [][]float64{{1, 2}}}); err != nil {
		t.Fatalf("torn write should report success, got %v", err)
	}
	if _, err := ReadCheckpoint(&torn); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("torn stream: want ErrCorruptCheckpoint, got %v", err)
	}
}

// TestCheckpointAtomicity simulates a crash mid-write of a newer
// checkpoint: the temp file exists (torn), but the rename never happened.
// The previous checkpoint must remain loadable, untouched.
func TestCheckpointAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "train.ckpt")
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: tinyConfig(), Epoch: 4, BestValMLU: 1.5})

	var next bytes.Buffer
	if err := WriteCheckpoint(&next, &Checkpoint{Cfg: tinyConfig(), Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp-crashed", next.Bytes()[:next.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint unloadable after simulated crash: %v", err)
	}
	if got.Epoch != 4 || got.BestValMLU != 1.5 {
		t.Fatalf("previous checkpoint damaged: %+v", got)
	}
}

func TestResumeRejectsMismatchedState(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	samples := checkpointSamples(m, p, 4)
	path := filepath.Join(t.TempDir(), "ck")

	// Config mismatch.
	other := tinyConfig()
	other.EmbedDim *= 2
	mustSaveCheckpoint(t, path, &Checkpoint{Cfg: other, Epoch: 1, NumTrain: len(samples)})
	tc := TrainConfig{Epochs: 2, Seed: 1, CheckpointPath: path, Resume: true}
	if _, err := m.FitCheckpointed(samples, nil, tc); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("config mismatch: want error, got %v", err)
	}

	// Training-set size mismatch (shuffle stream would diverge).
	good := New(tinyConfig())
	ck := &Checkpoint{
		Cfg: good.Cfg, Params: autograd.Snapshot(good.params), Epoch: 1, NumTrain: len(samples) + 1,
	}
	mustSaveCheckpoint(t, path, ck)
	if _, err := m.FitCheckpointed(samples, nil, tc); err == nil || !strings.Contains(err.Error(), "training samples") {
		t.Fatalf("NumTrain mismatch: want error, got %v", err)
	}

	// Parameter cardinality mismatch.
	ck.NumTrain = len(samples)
	ck.Params = [][]float64{{1, 2, 3}}
	mustSaveCheckpoint(t, path, ck)
	if _, err := m.FitCheckpointed(samples, nil, tc); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("params mismatch: want error, got %v", err)
	}
}

// TestKillAndResumeBitIdentical is the headline resume guarantee: training
// interrupted at epoch k and resumed from its checkpoint must finish with
// exactly the same FitResult and bit-identical parameters as a run that
// was never interrupted — Adam moments, shuffle order and best-snapshot
// tracking included.
func TestKillAndResumeBitIdentical(t *testing.T) {
	p := twoPathProblem()
	const total, cut = 6, 3
	base := TrainConfig{Epochs: total, LR: 2e-3, BatchSize: 2, GradClip: 5, Seed: 42}

	// Run A: uninterrupted.
	a := New(tinyConfig())
	resA, err := a.FitCheckpointed(checkpointSamples(a, p, 5), nil, base)
	if err != nil {
		t.Fatal(err)
	}

	// Run B: killed after `cut` epochs (checkpointing every epoch), then
	// resumed in a brand-new process (fresh model, fresh optimizer).
	path := filepath.Join(t.TempDir(), "train.ckpt")
	b := New(tinyConfig())
	tc1 := base
	tc1.Epochs = cut
	tc1.CheckpointPath = path
	if _, err := b.FitCheckpointed(checkpointSamples(b, p, 5), nil, tc1); err != nil {
		t.Fatal(err)
	}

	b2 := New(tinyConfig())
	tc2 := base
	tc2.CheckpointPath = path
	tc2.Resume = true
	resB, err := b2.FitCheckpointed(checkpointSamples(b2, p, 5), nil, tc2)
	if err != nil {
		t.Fatal(err)
	}

	if resB.ResumedAtEpoch != cut {
		t.Fatalf("resumed at epoch %d, want %d", resB.ResumedAtEpoch, cut)
	}
	if resA.Epochs != resB.Epochs || resA.BestValMLU != resB.BestValMLU {
		t.Fatalf("FitResult diverged: uninterrupted %+v vs resumed %+v", resA, resB)
	}
	if len(resA.TrainLoss) != len(resB.TrainLoss) {
		t.Fatalf("loss history length %d vs %d", len(resA.TrainLoss), len(resB.TrainLoss))
	}
	for i := range resA.TrainLoss {
		if resA.TrainLoss[i] != resB.TrainLoss[i] {
			t.Fatalf("epoch %d loss %v vs %v", i, resA.TrainLoss[i], resB.TrainLoss[i])
		}
		if resA.ValMLUHistory[i] != resB.ValMLUHistory[i] {
			t.Fatalf("epoch %d val MLU %v vs %v", i, resA.ValMLUHistory[i], resB.ValMLUHistory[i])
		}
	}
	for i := range a.params {
		for j := range a.params[i].Val.Data {
			av, bv := a.params[i].Val.Data[j], b2.params[i].Val.Data[j]
			if av != bv {
				t.Fatalf("param %d[%d]: %v vs %v (resume not bit-identical)", i, j, av, bv)
			}
		}
	}
}

// TestResumeOfFinishedRun: resuming a checkpoint whose epoch counter
// already reached the target is a no-op that still restores the best
// snapshot.
func TestResumeOfFinishedRun(t *testing.T) {
	p := twoPathProblem()
	path := filepath.Join(t.TempDir(), "ck")
	m := New(tinyConfig())
	tc := TrainConfig{Epochs: 2, BatchSize: 2, LR: 2e-3, Seed: 9, CheckpointPath: path}
	samples := checkpointSamples(m, p, 4)
	res1, err := m.FitCheckpointed(samples, nil, tc)
	if err != nil {
		t.Fatal(err)
	}

	m2 := New(tinyConfig())
	tc.Resume = true
	res2, err := m2.FitCheckpointed(checkpointSamples(m2, p, 4), nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epochs != res1.Epochs || res2.BestValMLU != res1.BestValMLU {
		t.Fatalf("finished-run resume mismatch: %+v vs %+v", res2, res1)
	}
}
