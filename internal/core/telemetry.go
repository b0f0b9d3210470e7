package core

// Telemetry integration for the training loop. It follows the obs
// package's nil-safety contract: a training run without telemetry carries
// nil handles, and the disabled path allocates nothing and reads the clock
// once per epoch and per checkpoint.
// The forward pass has no instruments of its own: inference stages are
// reqtrace spans (infer.go), timed when the request carries one, and the
// tape Forward is uninstrumented reference code.

import (
	"harpte/internal/autograd"
	"harpte/internal/obs"
)

// Metric names emitted by this package. Exported as constants so tests,
// dashboards and docs reference one spelling.
const (
	// MetricTrainLoss is a gauge holding the latest epoch's mean loss.
	MetricTrainLoss = "harp_train_loss"
	// MetricTrainValMLU is a gauge holding the latest epoch's validation MLU.
	MetricTrainValMLU = "harp_train_val_mlu"
	// MetricTrainBestValMLU is a gauge holding the best validation MLU so far.
	MetricTrainBestValMLU = "harp_train_best_val_mlu"
	// MetricTrainEpochs counts completed training epochs.
	MetricTrainEpochs = "harp_train_epochs_total"
	// MetricTrainEpochSeconds is a histogram of wall-clock time per epoch.
	MetricTrainEpochSeconds = "harp_train_epoch_seconds"
	// MetricTrainSkippedBatches counts batches the numerical health guard
	// discarded.
	MetricTrainSkippedBatches = "harp_train_skipped_batches_total"
	// MetricTrainGuardRestores counts last-good snapshot rollbacks.
	MetricTrainGuardRestores = "harp_train_guard_restores_total"
	// MetricCheckpointWriteSeconds is a histogram of checkpoint write latency.
	MetricCheckpointWriteSeconds = "harp_checkpoint_write_seconds"
	// MetricCheckpointRetries counts checkpoint write attempts that failed
	// and were retried with backoff (persistent failures abort the run and
	// surface as errors instead).
	MetricCheckpointRetries = "harp_checkpoint_retries_total"
)

// trainTelemetry holds the training-loop instruments: nil handles without
// a registry, and every call on one is a no-op.
type trainTelemetry struct {
	loss      *obs.Gauge
	valMLU    *obs.Gauge
	bestVal   *obs.Gauge
	epochs    *obs.Counter
	epochTime *obs.Histogram
	skipped   *obs.Counter
	restores  *obs.Counter
	ckptWrite *obs.Histogram
	ckptRetry *obs.Counter
}

func newTrainTelemetry(reg *obs.Registry) trainTelemetry {
	return trainTelemetry{
		loss:    reg.Gauge(MetricTrainLoss, "Mean training loss of the latest epoch."),
		valMLU:  reg.Gauge(MetricTrainValMLU, "Mean validation MLU of the latest epoch."),
		bestVal: reg.Gauge(MetricTrainBestValMLU, "Best mean validation MLU seen this run."),
		epochs:  reg.Counter(MetricTrainEpochs, "Completed training epochs."),
		epochTime: reg.Histogram(MetricTrainEpochSeconds,
			"Wall-clock seconds per training epoch.", obs.ExpBuckets(1e-3, 2, 22)),
		skipped: reg.Counter(MetricTrainSkippedBatches,
			"Batches discarded by the numerical health guard."),
		restores: reg.Counter(MetricTrainGuardRestores,
			"Parameter rollbacks to the last-good snapshot."),
		ckptWrite: reg.Histogram(MetricCheckpointWriteSeconds,
			"Checkpoint write (serialize+fsync+rename) latency.", nil),
		ckptRetry: reg.Counter(MetricCheckpointRetries,
			"Checkpoint write attempts retried after a transient IO error."),
	}
}

// RegisterRuntimeGauges exposes process-level health useful alongside the
// HARP metrics: the autograd tape-arena pool statistics (hit/miss and
// slab growth of the zero-alloc path). No-op on a nil registry.
func RegisterRuntimeGauges(reg *obs.Registry) {
	autograd.RegisterPoolMetrics(reg)
}
