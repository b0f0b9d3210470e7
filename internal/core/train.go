package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/fsio"
	"harpte/internal/obs"
	"harpte/internal/tensor"
)

// Sample is one training/evaluation instance. Demand feeds the model;
// LossDemand (nil = Demand) is what the loss is computed against — the
// HARP-Pred split of §5.7 sets Demand to the *predicted* matrix's flows and
// LossDemand to the true ones.
type Sample struct {
	Ctx        *Context
	Demand     *tensor.Dense
	LossDemand *tensor.Dense
}

func (s Sample) lossDemand() *tensor.Dense {
	if s.LossDemand != nil {
		return s.LossDemand
	}
	return s.Demand
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	LR        float64
	BatchSize int
	GradClip  float64
	Seed      int64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
	// Patience stops training after this many epochs without validation
	// improvement (0 disables early stopping).
	Patience int
	// Workers > 1 shards each batch across that many goroutines (see
	// TrainStep); 0 or 1 trains sequentially.
	Workers int

	// CheckpointPath, when non-empty, makes Fit write a crash-safe
	// checkpoint (atomic temp-file+rename, CRC-verified on load) after every
	// epoch. A failed write is retried — checkpointRetries attempts in all,
	// with capped jittered backoff — before FitCheckpointed gives up: a
	// briefly full disk or a flaky NFS mount should not abort a multi-hour
	// run.
	CheckpointPath string
	// Resume loads CheckpointPath before training and continues from the
	// recorded epoch. The continuation is bit-identical to a run that was
	// never interrupted: parameters, Adam moments, shuffle order and the
	// best-validation snapshot all pick up where they left off. A missing
	// checkpoint file simply starts a fresh run.
	Resume bool

	// Metrics, when non-nil, receives per-epoch training telemetry: loss
	// and validation-MLU gauges, epoch/skip/restore counters, epoch and
	// checkpoint-write latency histograms (metric names are the Metric*
	// constants in telemetry.go). Nil disables with zero overhead.
	Metrics *obs.Registry
	// Logger, when non-nil, receives one structured record per epoch via
	// log/slog (see obs.NewLogger). Independent of Log, which carries the
	// human-readable lines.
	Logger *slog.Logger

	// Test seams, nil in every program: checkpointFS routes checkpoint
	// writes through another filesystem (the crash-consistency tests inject
	// chaos filesystems), and lossHook observes and may replace every
	// batch's mean loss just before the guarded step (the fault-injection
	// tests poison batches with chaos.NaNAfter).
	checkpointFS fsio.FS
	lossHook     func(float64) float64
}

const (
	// maxConsecutiveSkips is how many poisoned batches in a row the
	// numerical health guard tolerates before restoring the last-good
	// parameter snapshot.
	maxConsecutiveSkips = 3
	// checkpointRetries bounds the attempts at each checkpoint write; only
	// the last one's error surfaces. checkpointBackoff is the delay before
	// the first retry; each further retry doubles it, jittered to
	// [0.5x, 1.5x) and capped at 1s.
	checkpointRetries = 3
	checkpointBackoff = 50 * time.Millisecond
)

// DefaultTrainConfig returns settings that converge on the bundled
// datasets within seconds to minutes on a CPU.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LR: 2e-3, BatchSize: 8, GradClip: 5, Seed: 1}
}

// Validate checks tc and normalizes it in place. Zero values keep their
// documented "use the default" meaning (Epochs→1, BatchSize→8, LR→2e-3);
// values that cannot mean anything sensible — negative counts, non-finite
// rates, more workers than the batch can shard across, Resume without a
// checkpoint path — are rejected with a descriptive error instead of being
// silently coerced. Fit and FitCheckpointed call it on entry; callers that
// build configs from user input (harpcli) should call it early to fail
// before any expensive setup.
func (tc *TrainConfig) Validate() error {
	if tc.Epochs < 0 {
		return fmt.Errorf("core: TrainConfig.Epochs must be >= 0 (0 means 1), got %d", tc.Epochs)
	}
	if tc.BatchSize < 0 {
		return fmt.Errorf("core: TrainConfig.BatchSize must be >= 0 (0 means 8), got %d", tc.BatchSize)
	}
	if !isFinite(tc.LR) || tc.LR < 0 {
		return fmt.Errorf("core: TrainConfig.LR must be finite and >= 0 (0 means 2e-3), got %v", tc.LR)
	}
	if !isFinite(tc.GradClip) || tc.GradClip < 0 {
		return fmt.Errorf("core: TrainConfig.GradClip must be finite and >= 0 (0 disables clipping), got %v", tc.GradClip)
	}
	if tc.Workers < 0 {
		return fmt.Errorf("core: TrainConfig.Workers must be >= 0 (0 or 1 trains sequentially), got %d", tc.Workers)
	}
	if tc.Patience < 0 {
		return fmt.Errorf("core: TrainConfig.Patience must be >= 0 (0 disables early stopping), got %d", tc.Patience)
	}
	if tc.Resume && tc.CheckpointPath == "" {
		return errors.New("core: TrainConfig.Resume requires CheckpointPath")
	}
	if tc.Epochs == 0 {
		tc.Epochs = 1
	}
	if tc.BatchSize == 0 {
		tc.BatchSize = 8
	}
	if tc.LR == 0 {
		tc.LR = 2e-3
	}
	if tc.Workers > tc.BatchSize {
		return fmt.Errorf("core: TrainConfig.Workers (%d) exceeds BatchSize (%d); shards beyond the batch would always be idle — lower Workers or raise BatchSize",
			tc.Workers, tc.BatchSize)
	}
	return nil
}

// TrainStep accumulates the gradient of the batch's mean loss and applies
// one guarded optimizer step (autograd.Adam.Step): when the loss or the
// gradient norm is NaN/Inf the step is withheld, gradients are cleared and
// skipped=true is returned — a poisoned batch never touches the parameters
// or the Adam moments. workers > 1 shards the batch across that many
// goroutines (parallel.go); the gradient is the serial one up to
// floating-point summation order. workers <= 1 is the serial step.
func (m *Model) TrainStep(opt *autograd.Adam, batch []Sample, workers int) (loss float64, skipped bool) {
	if len(batch) == 0 {
		return 0, false
	}
	if workers = min(workers, len(batch)); workers > 1 {
		loss = m.backpropSharded(batch, workers)
	} else {
		scale := 1 / float64(len(batch))
		tp := m.trainingTape()
		for _, s := range batch {
			loss += m.backprop(tp, s, scale)
		}
	}
	if m.lossHook != nil {
		loss = m.lossHook(loss)
	}
	return loss, !opt.Step(m.params, loss)
}

// backprop runs one sample forward and backward on tp, adding its gradient
// times scale to the parameters', and returns its scaled loss. The Reset
// recycles every per-sample node and buffer.
func (m *Model) backprop(tp *autograd.Tape, s Sample, scale float64) float64 {
	fr := m.Forward(tp, s.Ctx, s.Demand)
	l := tp.Scale(m.LossMLU(tp, s.Ctx, fr.Splits, s.lossDemand()), scale)
	tp.Backward(l)
	loss := l.Val.Data[0]
	tp.Reset()
	return loss
}

// trainingTape returns the model's persistent reusable tape, creating it on
// first use. Everything recorded on it is recycled by the per-sample Reset
// in the step functions, so steady-state training allocates almost nothing.
func (m *Model) trainingTape() *autograd.Tape {
	if m.trainTape == nil {
		m.trainTape = autograd.NewReusableTape()
	}
	return m.trainTape
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FitResult reports the outcome of Fit.
type FitResult struct {
	Epochs        int
	BestValMLU    float64
	TrainLoss     []float64 // mean loss per epoch
	ValMLUHistory []float64 // mean hard MLU on the validation set per epoch

	// SkippedBatches counts batches the numerical health guard discarded
	// (NaN/Inf loss or gradient norm) instead of stepping.
	SkippedBatches int
	// GuardRestores counts how many times repeated consecutive skips
	// forced a restore of the last-good parameter snapshot.
	GuardRestores int
	// ResumedAtEpoch is the epoch a checkpointed run continued from
	// (0 for a fresh run).
	ResumedAtEpoch int
}

// Fit trains the model, tracking the parameter snapshot that minimizes the
// mean validation MLU and restoring it before returning — the paper's
// "train for sufficient epochs, save the model after every epoch, pick the
// best on the validation set" protocol (§4), collapsed into one call.
// Configuration and checkpoint errors (TrainConfig.Validate,
// CheckpointPath/Resume) are logged to tc.Log and otherwise swallowed; use
// FitCheckpointed when they must be handled.
func (m *Model) Fit(train, val []Sample, tc TrainConfig) FitResult {
	res, err := m.FitCheckpointed(train, val, tc)
	if err != nil && tc.Log != nil {
		fmt.Fprintf(tc.Log, "fit: %v\n", err)
	}
	return res
}

// FitCheckpointed is Fit returning configuration and checkpoint/resume
// errors explicitly: an invalid TrainConfig (see TrainConfig.Validate), a
// corrupt or mismatched checkpoint, or a failed checkpoint write all abort
// with a non-nil error (for write failures the partial FitResult is still
// returned).
func (m *Model) FitCheckpointed(train, val []Sample, tc TrainConfig) (FitResult, error) {
	if err := tc.Validate(); err != nil {
		return FitResult{BestValMLU: math.Inf(1)}, err
	}
	opt := autograd.NewAdam(tc.LR)
	opt.GradClip = tc.GradClip
	m.lossHook = tc.lossHook
	defer func() { m.lossHook = nil }()
	if len(val) == 0 {
		// Without a validation set, select the best epoch on the training
		// set (better than keeping whatever the last epoch produced).
		val = train
	}

	res := FitResult{BestValMLU: math.Inf(1)}
	var best [][]float64
	badEpochs := 0
	startEpoch := 0
	seed := tc.Seed

	if tc.Resume && tc.CheckpointPath != "" {
		ck, err := LoadCheckpoint(tc.CheckpointPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume from: fall through to a fresh run.
		case err != nil:
			return res, err
		default:
			if ck.Cfg != m.Cfg {
				return res, fmt.Errorf("core: checkpoint model config %+v does not match %+v", ck.Cfg, m.Cfg)
			}
			if ck.NumTrain != len(train) {
				return res, fmt.Errorf("core: checkpoint was taken with %d training samples, resuming with %d would diverge",
					ck.NumTrain, len(train))
			}
			if err := m.restoreSnapshot(ck.Params); err != nil {
				return res, err
			}
			if err := opt.SetState(m.params, ck.Adam); err != nil {
				return res, err
			}
			seed = ck.Seed
			startEpoch = ck.Epoch
			best = ck.Best
			res.BestValMLU = ck.BestValMLU
			badEpochs = ck.BadEpochs
			res.TrainLoss = append(res.TrainLoss, ck.TrainLoss...)
			res.ValMLUHistory = append(res.ValMLUHistory, ck.ValMLU...)
			res.SkippedBatches = ck.SkippedBatches
			res.GuardRestores = ck.GuardRestores
			res.ResumedAtEpoch = ck.Epoch
			res.Epochs = ck.Epoch
		}
	}

	// The shuffle RNG consumes exactly one Perm per epoch, so its position
	// is fully determined by (seed, epochs completed) — that is what makes
	// resumed runs bit-identical without serializing rand internals.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < startEpoch; i++ {
		rng.Perm(len(train))
	}

	tt := newTrainTelemetry(tc.Metrics)

	ckFS := tc.checkpointFS
	if ckFS == nil {
		ckFS = fsio.OS{}
	}
	// The backoff jitter draws from its own RNG so retries never perturb
	// the shuffle stream (which must stay a pure function of seed+epoch
	// for bit-identical resume).
	retryRNG := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))

	// saveWithRetry attempts the atomic checkpoint write up to
	// checkpointRetries times. Checkpoint writes are idempotent (same bytes,
	// same rename target), so retrying after any failure is safe; persistent
	// failures still surface after the final attempt.
	saveWithRetry := func(ck *Checkpoint) error {
		delay := checkpointBackoff
		var err error
		for attempt := 1; ; attempt++ {
			err = SaveCheckpointFS(ckFS, tc.CheckpointPath, ck)
			if err == nil {
				return nil
			}
			if attempt >= checkpointRetries {
				break
			}
			tt.ckptRetry.Inc()
			sleep := delay/2 + time.Duration(retryRNG.Int63n(int64(delay)))
			if tc.Log != nil {
				fmt.Fprintf(tc.Log, "checkpoint write attempt %d/%d failed: %v (retrying in %v)\n",
					attempt, checkpointRetries, err, sleep.Round(time.Millisecond))
			}
			time.Sleep(sleep)
			if delay < time.Second {
				delay *= 2
				if delay > time.Second {
					delay = time.Second
				}
			}
		}
		return fmt.Errorf("core: checkpoint write failed after %d attempts: %w", checkpointRetries, err)
	}

	checkpoint := func(epoch int) error {
		if tc.CheckpointPath == "" {
			return nil
		}
		ck := &Checkpoint{
			Cfg:            m.Cfg,
			Params:         autograd.Snapshot(m.params),
			Adam:           opt.State(m.params),
			Epoch:          epoch,
			Seed:           seed,
			RNGDraws:       epoch,
			NumTrain:       len(train),
			Best:           best,
			BestValMLU:     res.BestValMLU,
			BadEpochs:      badEpochs,
			TrainLoss:      res.TrainLoss,
			ValMLU:         res.ValMLUHistory,
			SkippedBatches: res.SkippedBatches,
			GuardRestores:  res.GuardRestores,
		}
		t0 := time.Now()
		err := saveWithRetry(ck)
		if err == nil {
			tt.ckptWrite.ObserveSince(t0)
		}
		return err
	}
	// lastGood is the guard's rollback point: the parameters as of the
	// last epoch boundary that saw no skipped batch.
	lastGood := autograd.Snapshot(m.params)
	consecutiveSkips := 0

	for epoch := startEpoch; epoch < tc.Epochs; epoch++ {
		epochStart := time.Now()
		restoresBefore := res.GuardRestores
		var epochLoss float64
		stepped, epochSkips := 0, 0
		autograd.EachBatch(rng, len(train), tc.BatchSize, func(idx []int) {
			batch := make([]Sample, len(idx))
			for j, i := range idx {
				batch[j] = train[i]
			}
			loss, skipped := m.TrainStep(opt, batch, tc.Workers)
			if !skipped {
				consecutiveSkips = 0
				epochLoss += loss
				stepped++
				return
			}
			res.SkippedBatches++
			epochSkips++
			if consecutiveSkips++; consecutiveSkips >= maxConsecutiveSkips {
				// Repeated poison suggests the parameters themselves have
				// been damaged; roll back to the last-good snapshot rather
				// than keep skipping forever.
				autograd.Restore(m.params, lastGood)
				res.GuardRestores++
				consecutiveSkips = 0
			}
		})
		if stepped > 0 {
			epochLoss /= float64(stepped)
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss)

		valMLU := m.MeanMLU(val)
		res.ValMLUHistory = append(res.ValMLUHistory, valMLU)
		if isFinite(valMLU) && valMLU < res.BestValMLU {
			res.BestValMLU = valMLU
			best = autograd.Snapshot(m.params)
			badEpochs = 0
		} else {
			badEpochs++
		}
		if epochSkips == 0 {
			lastGood = autograd.Snapshot(m.params)
		}
		tt.loss.Set(epochLoss)
		tt.valMLU.Set(valMLU)
		tt.bestVal.Set(res.BestValMLU)
		tt.epochs.Inc()
		tt.epochTime.ObserveSince(epochStart)
		tt.skipped.Add(int64(epochSkips))
		tt.restores.Add(int64(res.GuardRestores - restoresBefore))
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %3d  loss %.4f  val-MLU %.4f", epoch, epochLoss, valMLU)
			if epochSkips > 0 {
				fmt.Fprintf(tc.Log, "  (skipped %d poisoned batches)", epochSkips)
			}
			fmt.Fprintln(tc.Log)
		}
		if tc.Logger != nil {
			tc.Logger.Info("epoch",
				slog.Int("epoch", epoch),
				slog.Float64("loss", epochLoss),
				slog.Float64("val_mlu", valMLU),
				slog.Float64("best_val_mlu", res.BestValMLU),
				slog.Int("skipped_batches", epochSkips),
				slog.Int("guard_restores", res.GuardRestores-restoresBefore),
				slog.Duration("elapsed", time.Since(epochStart)))
		}
		res.Epochs = epoch + 1
		if err := checkpoint(epoch + 1); err != nil {
			return res, err
		}
		if tc.Patience > 0 && badEpochs >= tc.Patience {
			break
		}
	}
	if best != nil {
		autograd.Restore(m.params, best)
	}
	return res, nil
}

// restoreSnapshot is autograd.Restore with shape validation, for snapshots
// that crossed a serialization boundary.
func (m *Model) restoreSnapshot(snap [][]float64) error {
	if len(snap) != len(m.params) {
		return fmt.Errorf("core: snapshot has %d parameter tensors, expected %d", len(snap), len(m.params))
	}
	for i, p := range m.params {
		if len(snap[i]) != len(p.Val.Data) {
			return fmt.Errorf("core: snapshot parameter %d has %d values, expected %d",
				i, len(snap[i]), len(p.Val.Data))
		}
	}
	autograd.Restore(m.params, snap)
	return nil
}

// MeanMLU evaluates the mean hard MLU over the samples (loss demand).
func (m *Model) MeanMLU(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.Inf(1)
	}
	var total float64
	for _, s := range samples {
		splits := m.Splits(s.Ctx, s.Demand)
		total += s.Ctx.inner.p.MLU(splits, s.lossDemand())
	}
	return total / float64(len(samples))
}
