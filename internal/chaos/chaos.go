// Package chaos is a fault-injection harness for the resilience tests: it
// simulates the failure modes the checkpoint/serving stack must survive —
// crashes that tear a file mid-write (CrashFS, a fsio.FS with a
// seed-replayable kill/short-write/dropped-fsync schedule), transient IO
// error windows (FlakyFS), storage bit rot, and numerically poisoned
// training batches. Every injector is deterministic: the same seed and
// plan replay the identical fault sequence, so any torture failure is
// reproducible from its seed alone. Production code never imports this
// package; tests use it to prove every guard actually fires.
package chaos

import (
	"fmt"
	"io"
	"math"
	"os"
)

// TruncatingWriter passes writes through to W until Limit bytes have been
// written, then silently drops the rest while still reporting success —
// the observable effect of a process killed mid-write on a filesystem
// that had flushed only a prefix. Err, when non-nil, is returned instead
// of silently dropping, modeling a disk-full/IO error mid-stream.
type TruncatingWriter struct {
	W     io.Writer
	Limit int64
	Err   error // returned once the limit is hit; nil = silent truncation

	written int64
}

func (t *TruncatingWriter) Write(p []byte) (int, error) {
	remaining := t.Limit - t.written
	if remaining <= 0 {
		if t.Err != nil {
			return 0, t.Err
		}
		return len(p), nil
	}
	if int64(len(p)) <= remaining {
		n, err := t.W.Write(p)
		t.written += int64(n)
		return n, err
	}
	n, err := t.W.Write(p[:remaining])
	t.written += int64(n)
	if err != nil {
		return n, err
	}
	if t.Err != nil {
		return n, t.Err
	}
	return len(p), nil
}

// FlipBit flips one bit of buf at byte offset off.
func FlipBit(buf []byte, off int, bit uint) {
	buf[off] ^= 1 << (bit % 8)
}

// CorruptFile flips one bit of the file at path at byte offset off,
// simulating storage bit rot. A negative off counts from the end.
func CorruptFile(path string, off int64, bit uint) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 {
		off += int64(len(data))
	}
	if off < 0 || off >= int64(len(data)) {
		return fmt.Errorf("chaos: offset %d out of range for %d-byte file", off, len(data))
	}
	FlipBit(data, int(off), bit)
	return os.WriteFile(path, data, 0o644)
}

// TruncateFile cuts the file at path down to n bytes (a torn write). A
// negative n removes |n| bytes from the end.
func TruncateFile(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 {
		n += fi.Size()
	}
	if n < 0 {
		n = 0
	}
	return os.Truncate(path, n)
}

// NaNAfter returns a loss hook (core's training test seam) that passes
// the first n batch losses through untouched and replaces every later one
// with NaN — poisoning training exactly the way an exploding gradient or a
// corrupted input batch would present to the health guards.
func NaNAfter(n int) func(float64) float64 {
	calls := 0
	return func(loss float64) float64 {
		calls++
		if calls > n {
			return math.NaN()
		}
		return loss
	}
}

// NaNEvery returns a loss hook that poisons every k-th batch (1-based),
// modeling intermittent bad batches rather than a permanently wedged run.
func NaNEvery(k int) func(float64) float64 {
	calls := 0
	return func(loss float64) float64 {
		calls++
		if k > 0 && calls%k == 0 {
			return math.NaN()
		}
		return loss
	}
}
