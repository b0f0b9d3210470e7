package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"harpte/internal/chaos"
)

// TestFitCheckpointedRetriesTransientWriteErrors: a transient IO window
// (the first two checkpoint-write attempts fail) must not abort training —
// the write is retried with backoff and the run completes with a valid
// checkpoint on disk.
func TestFitCheckpointedRetriesTransientWriteErrors(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	path := filepath.Join(t.TempDir(), "ck")
	flaky := chaos.NewFlakyFS(2, errors.New("disk briefly full"))

	var log bytes.Buffer
	tc := TrainConfig{
		Epochs: 1, BatchSize: 2, LR: 2e-3, Seed: 3,
		CheckpointPath: path,
		checkpointFS:   flaky,
		Log:            &log,
	}
	if _, err := m.FitCheckpointed(checkpointSamples(m, p, 4), nil, tc); err != nil {
		t.Fatalf("transient write errors should be absorbed by retry, got: %v", err)
	}
	if got := flaky.Calls(); got != 3 {
		t.Fatalf("write attempts = %d, want 3 (2 failures + 1 success)", got)
	}
	if !strings.Contains(log.String(), "retrying") {
		t.Fatalf("retries not surfaced in the training log:\n%s", log.String())
	}
	if ck, err := LoadCheckpoint(path); err != nil || ck.Epoch != 1 {
		t.Fatalf("checkpoint after retries: ck=%+v err=%v", ck, err)
	}
}

// TestFitCheckpointedSurfacesPersistentWriteErrors: when every attempt
// fails, the error surfaces after exactly checkpointRetries attempts.
func TestFitCheckpointedSurfacesPersistentWriteErrors(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	sentinel := errors.New("mount gone")
	flaky := chaos.NewFlakyFS(1<<30, sentinel)

	tc := TrainConfig{
		Epochs: 1, BatchSize: 2, LR: 2e-3, Seed: 3,
		CheckpointPath: filepath.Join(t.TempDir(), "ck"),
		checkpointFS:   flaky,
	}
	_, err := m.FitCheckpointed(checkpointSamples(m, p, 4), nil, tc)
	if !errors.Is(err, sentinel) {
		t.Fatalf("persistent failure should surface the underlying error, got: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", checkpointRetries)) {
		t.Fatalf("error should report the attempt count: %v", err)
	}
	if got := flaky.Calls(); got != checkpointRetries {
		t.Fatalf("write attempts = %d, want %d", got, checkpointRetries)
	}
}

// TestFitCheckpointedRetryDoesNotPerturbTraining: the retry path's RNG and
// sleeps must not change training results — a run whose checkpoint writes
// needed retries finishes bit-identical to one whose writes all succeeded.
func TestFitCheckpointedRetryDoesNotPerturbTraining(t *testing.T) {
	p := twoPathProblem()
	base := TrainConfig{Epochs: 3, BatchSize: 2, LR: 2e-3, Seed: 11}

	a := New(tinyConfig())
	tca := base
	tca.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	resA, err := a.FitCheckpointed(checkpointSamples(a, p, 5), nil, tca)
	if err != nil {
		t.Fatal(err)
	}

	b := New(tinyConfig())
	tcb := base
	tcb.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	tcb.checkpointFS = chaos.NewFlakyFS(1, errors.New("blip"))
	resB, err := b.FitCheckpointed(checkpointSamples(b, p, 5), nil, tcb)
	if err != nil {
		t.Fatal(err)
	}

	if resA.BestValMLU != resB.BestValMLU || resA.Epochs != resB.Epochs {
		t.Fatalf("retry perturbed training: %+v vs %+v", resA, resB)
	}
	for i := range a.params {
		for j := range a.params[i].Val.Data {
			if a.params[i].Val.Data[j] != b.params[i].Val.Data[j] {
				t.Fatalf("param %d[%d] diverged under checkpoint retries", i, j)
			}
		}
	}
}
