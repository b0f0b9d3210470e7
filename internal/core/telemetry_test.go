package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/tensor"
)

// stageCount is how many spans named stage have ended under a recorder
// feeding reg.
func stageCount(reg *obs.Registry, stage string) uint64 {
	return reg.Histogram(reqtrace.MetricRequestStageSeconds, "", nil, obs.L("stage", stage)).Count()
}

// TestForwardStageTracing: SplitsCtx calls on one Context, each under a
// span of a recorder that feeds a registry, time the embedding stages once
// — the first call builds the plan, the rest find it — and the
// demand-dependent stages every call, the RAU span saying how many
// iterations ran and how many accumulator rows it copied, with the same
// outputs as an untraced model.
func TestForwardStageTracing(t *testing.T) {
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})

	plain := New(tinyConfig())
	want := plain.Splits(plain.Context(p), d)

	m := New(tinyConfig())
	reg := obs.NewRegistry()
	rec := reqtrace.NewRecorder(reqtrace.Options{SampleEvery: 1})
	rec.EnableTelemetry(reg)
	c := m.Context(p)
	const passes = 3
	var got *tensor.Dense
	for i := 0; i < passes; i++ {
		ctx, root := rec.StartTrace(context.Background(), "request")
		got, _ = m.SplitsCtx(ctx, c, d)
		root.End()
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("tracing changed the output: splits[%d] %v != %v", i, got.Data[i], v)
		}
	}

	// forward.settrans over forward.mlp1 is the plan build rate. Under
	// -race sync.Pool drops items at random, so any pass may have rebuilt.
	builds := stageCount(reg, "forward.settrans")
	if stageCount(reg, "forward.gnn") != builds || builds < 1 || builds > passes || (!tensor.RaceEnabled && builds != 1) {
		t.Fatalf("%d passes on one Context ran gnn %d and settrans %d times, want once each", passes, stageCount(reg, "forward.gnn"), builds)
	}
	for _, stage := range []string{"forward.mlp1", "forward.rau", "request"} {
		if got := stageCount(reg, stage); got != passes {
			t.Fatalf("stage %s count = %d, want %d", stage, got, passes)
		}
	}
	// refills counts the accumulator rows the RAU copied out of the plan:
	// every tunnel's at least once after a build, which empties them, and
	// never more than one per tunnel per iteration.
	iters, tunnels := int64(tinyConfig().RAUIterations), int64(p.Tunnels.NumTunnels())
	for _, tr := range rec.Snapshot().Traces {
		build := false
		for _, sp := range tr.Spans {
			build = build || sp.Attrs["plan"] == "build"
		}
		for _, sp := range tr.Spans {
			if sp.Name != "forward.rau" {
				continue
			}
			if sp.Attrs["iterations"] != iters {
				t.Fatalf("forward.rau iterations = %v, want %d", sp.Attrs["iterations"], iters)
			}
			refills, ok := sp.Attrs["refills"].(int64)
			if !ok || refills > tunnels*iters || (build && refills < tunnels) {
				t.Fatalf("forward.rau refills = %v on a plan build %v, want at most %d and on a build at least %d", sp.Attrs["refills"], build, tunnels*iters, tunnels)
			}
		}
	}

	// A forward under no span is timed by nobody.
	m.Splits(c, d)
	if got := stageCount(reg, "forward.mlp1"); got != passes {
		t.Fatalf("an untraced Splits was observed: mlp1 count %d", got)
	}
}

// TestFitPublishesTrainingTelemetry: Fit with Metrics set publishes the
// loss/val-MLU gauges, epoch and guard counters, and checkpoint write
// latency, and the exposition carries them all.
func TestFitPublishesTrainingTelemetry(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	reg := obs.NewRegistry()

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

// TestTracedInferenceAllocsBounded: "traced" is one whole request trace —
// StartTrace, SplitsCtx under its root, End — on a recorder with a registry
// attached. Over the untraced engine's 2 that is 10 more: the trace, its
// context, three spans, the span list growing three times to hold them, the
// plan annotation, and one slice for the RAU span's iterations and refills.
// The histogram feed adds nothing once each stage name has been seen.
func TestTracedInferenceAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	m, c, samples := abileneBench(1)
	rec := reqtrace.NewRecorder(reqtrace.Options{})
	rec.EnableTelemetry(obs.NewRegistry())
	d := samples[0].Demand
	traced := func() {
		ctx, root := rec.StartTrace(context.Background(), "request")
		m.SplitsCtx(ctx, c, d)
		root.End()
	}
	traced()
	if n := testing.AllocsPerRun(20, traced); n > 12 {
		t.Errorf("traced steady-state request allocates %v times per run, want <= 12 (2 untraced + 10 for the trace)", n)
	}
}
