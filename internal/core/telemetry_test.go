package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"harpte/internal/obs"
	"harpte/internal/tensor"
)

// TestForwardStageTracing: traced Splits calls on one Context record the
// embedding stages once — the first call builds the plan, the rest find it —
// and the demand-dependent stages every call, one rau_iter observation per
// configured RAU iteration, with the same outputs as an untraced model.
func TestForwardStageTracing(t *testing.T) {
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})

	plain := New(tinyConfig())
	want := plain.Splits(plain.Context(p), d)

	m := New(tinyConfig())
	reg := obs.NewRegistry()
	m.EnableTelemetry(reg)
	c := m.Context(p)
	const passes = 3
	var got *tensor.Dense
	for i := 0; i < passes; i++ {
		got = m.Splits(c, d)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("tracing changed the output: splits[%d] %v != %v", i, got.Data[i], v)
		}
	}

	stage := func(name string) uint64 {
		return reg.Histogram(MetricForwardStageSeconds, "", nil, obs.L("stage", name)).Count()
	}
	// settrans count over the pass counter is the plan build rate. Under
	// -race sync.Pool drops items at random, so any pass may have rebuilt.
	builds := stage("settrans")
	if stage("gnn") != builds || builds < 1 || builds > passes || (!tensor.RaceEnabled && builds != 1) {
		t.Fatalf("%d passes on one Context ran gnn %d and settrans %d times, want once each", passes, stage("gnn"), builds)
	}
	if got := stage("mlp1"); got != passes {
		t.Fatalf("stage mlp1 count = %d, want %d", got, passes)
	}
	if got, want := stage("rau_iter"), uint64(passes*tinyConfig().RAUIterations); got != want {
		t.Fatalf("rau_iter count = %d, want %d", got, want)
	}
	if got := reg.Counter(MetricForwardPasses, "").Value(); got != passes {
		t.Fatalf("passes counter = %d, want %d", got, passes)
	}

	// Detaching restores the untraced path.
	m.EnableTelemetry(nil)
	m.Splits(c, d)
	if got := reg.Counter(MetricForwardPasses, "").Value(); got != passes {
		t.Fatalf("detached model still counted a pass: %d", got)
	}
}

// TestFitPublishesTrainingTelemetry: Fit with Metrics set publishes the
// loss/val-MLU gauges, epoch and guard counters, and checkpoint write
// latency, and the exposition carries them all.
func TestFitPublishesTrainingTelemetry(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	reg := obs.NewRegistry()
	m.EnableTelemetry(reg)

	tc := TrainConfig{Epochs: 3, LR: 1e-3, BatchSize: 4, Seed: 5,
		Metrics:        reg,
		CheckpointPath: filepath.Join(t.TempDir(), "train.ckpt"),
	}
	res, err := m.FitCheckpointed(checkpointSamples(m, p, 6), nil, tc)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(MetricTrainEpochs, "").Value(); got != int64(res.Epochs) {
		t.Fatalf("epochs counter = %d, want %d", got, res.Epochs)
	}
	lastLoss := res.TrainLoss[len(res.TrainLoss)-1]
	if got := reg.Gauge(MetricTrainLoss, "").Value(); got != lastLoss {
		t.Fatalf("loss gauge = %v, want %v", got, lastLoss)
	}
	lastVal := res.ValMLUHistory[len(res.ValMLUHistory)-1]
	if got := reg.Gauge(MetricTrainValMLU, "").Value(); got != lastVal {
		t.Fatalf("val-MLU gauge = %v, want %v", got, lastVal)
	}
	if got := reg.Gauge(MetricTrainBestValMLU, "").Value(); got != res.BestValMLU {
		t.Fatalf("best-val gauge = %v, want %v", got, res.BestValMLU)
	}
	if got := reg.Histogram(MetricCheckpointWriteSeconds, "", nil).Count(); got == 0 {
		t.Fatal("checkpoint write histogram never observed")
	}
	if got := reg.Histogram(MetricTrainEpochSeconds, "", obs.ExpBuckets(1e-3, 2, 22)).Count(); got != uint64(res.Epochs) {
		t.Fatalf("epoch-time histogram count = %d, want %d", got, res.Epochs)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"harp_train_loss ", "harp_train_val_mlu ",
		"harp_train_epochs_total 3",
		`harp_forward_stage_seconds_bucket{stage="rau_iter",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFitStructuredLogger: TrainConfig.Logger emits one parseable JSON
// record per epoch.
func TestFitStructuredLogger(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	var buf bytes.Buffer
	tc := TrainConfig{Epochs: 2, LR: 1e-3, BatchSize: 4, Seed: 5,
		Logger: obs.NewLogger(&buf, true)}
	if _, err := m.FitCheckpointed(checkpointSamples(m, p, 6), nil, tc); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", sc.Text(), err)
		}
		for _, key := range []string{"epoch", "loss", "val_mlu", "best_val_mlu"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("log record missing %q: %v", key, rec)
			}
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d JSON epoch records, want 2", lines)
	}
}

// TestTracedInferenceAllocsBounded: telemetry must not break the
// steady-state allocation bound — spans are stack values and histogram
// observations allocate nothing, so the traced path pins at the same
// constant as the untraced one.
func TestTracedInferenceAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	m, ctx, samples := abileneBench(1)
	m.EnableTelemetry(obs.NewRegistry())
	d := samples[0].Demand
	m.Splits(ctx, d)
	n := testing.AllocsPerRun(20, func() { m.Splits(ctx, d) })
	if n > 4 {
		t.Errorf("traced steady-state Splits allocates %v times per run, want <= 4", n)
	}
}
