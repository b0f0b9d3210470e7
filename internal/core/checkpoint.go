package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"harpte/internal/autograd"
	"harpte/internal/fsio"
)

// This file implements crash-safe training checkpoints. A checkpoint holds
// everything Fit needs to continue an interrupted run bit-identically: the
// parameters, the full Adam state (step counter and both moment vectors),
// the epoch counter, the RNG seed plus how far the shuffle stream has been
// consumed, and the best-validation snapshot. The on-disk format, shared
// with model files (io.go), is a fixed header (magic, version, payload
// length, CRC-32) followed by a gob payload, so truncation and bit rot are
// detected before a single byte is trusted, and files are written
// atomically (temp file + rename) so a crash mid-write can never tear the
// previous checkpoint.

// Checkpoint is the resumable state of a training run. All fields are
// exported for serialization; callers normally only inspect Epoch and
// BestValMLU and hand the rest back to Fit via TrainConfig.Resume.
type Checkpoint struct {
	Cfg    Config
	Params [][]float64
	Adam   autograd.AdamState
	// Epoch is the number of completed epochs.
	Epoch int
	// Seed and RNGDraws reconstruct the shuffle RNG: reseed with Seed and
	// replay RNGDraws epoch permutations (Fit consumes exactly one
	// rng.Perm per epoch).
	Seed     int64
	RNGDraws int
	// NumTrain guards shuffle determinism: resuming against a different
	// training-set size would silently diverge, so it is an error.
	NumTrain int
	// Best is the parameter snapshot minimizing validation MLU so far
	// (nil if no finite validation score has been seen).
	Best       [][]float64
	BestValMLU float64
	BadEpochs  int
	TrainLoss  []float64
	ValMLU     []float64
	// Guard counters, carried across resume so FitResult totals are
	// cumulative for the whole logical run.
	SkippedBatches int
	GuardRestores  int
}

const checkpointVersion = 1

// checkpointMagic identifies a harpte checkpoint stream; exactly 8 bytes.
var checkpointMagic = [8]byte{'H', 'A', 'R', 'P', 'C', 'K', 'P', 'T'}

// maxFramePayload bounds the gob payload a frame header may declare (1 GiB —
// orders of magnitude above any real model, small enough that a corrupt
// length field cannot OOM the loader).
const maxFramePayload = 1 << 30

// ErrCorruptCheckpoint tags any integrity failure of a checkpoint or a
// model file (bad magic, torn file, checksum mismatch, undecodable payload)
// so callers can distinguish corruption from ordinary IO errors with
// errors.Is.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// frameHeader is the fixed-size prefix of a checkpoint or a model file,
// encoded big-endian: magic, format version, payload byte length, payload
// CRC-32 (IEEE).
type frameHeader struct {
	Magic   [8]byte
	Version uint32
	Length  uint64
	CRC     uint32
}

// writeFrame gob-encodes v and writes it to w behind a frameHeader.
func writeFrame(w io.Writer, magic [8]byte, version uint32, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	h := frameHeader{
		Magic:   magic,
		Version: version,
		Length:  uint64(payload.Len()),
		CRC:     crc32.ChecksumIEEE(payload.Bytes()),
	}
	if err := binary.Write(w, binary.BigEndian, &h); err != nil {
		return fmt.Errorf("writing header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("writing payload: %w", err)
	}
	return nil
}

// readFrame reads a frame written by writeFrame with this magic and at most
// this version, verifies its length and checksum before trusting a byte,
// and gob-decodes the payload into v. Integrity failures wrap
// ErrCorruptCheckpoint.
func readFrame(r io.Reader, magic [8]byte, version uint32, v any) error {
	var h frameHeader
	if err := binary.Read(r, binary.BigEndian, &h); err != nil {
		return fmt.Errorf("%w: truncated header (%v)", ErrCorruptCheckpoint, err)
	}
	if h.Magic != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorruptCheckpoint, h.Magic[:])
	}
	if h.Version > version {
		return fmt.Errorf("format version %d is newer than supported version %d", h.Version, version)
	}
	// The declared length is attacker/bit-rot-controlled; allocating it
	// blindly turns an 8-byte flip into a multi-GiB allocation (found by
	// FuzzReadCheckpoint). Anything over the cap cannot be a real frame, so
	// treat it as corruption.
	if h.Length > maxFramePayload {
		return fmt.Errorf("%w: declared payload length %d exceeds %d-byte cap",
			ErrCorruptCheckpoint, h.Length, int64(maxFramePayload))
	}
	payload := make([]byte, h.Length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("%w: truncated payload (%v)", ErrCorruptCheckpoint, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != h.CRC {
		return fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorruptCheckpoint, h.CRC, crc)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: undecodable payload: %v", ErrCorruptCheckpoint, err)
	}
	return nil
}

// WriteCheckpoint encodes ck to w in the versioned, checksummed format.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if err := writeFrame(w, checkpointMagic, checkpointVersion, ck); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint decodes a checkpoint from r, verifying magic, version and
// checksum before decoding. Integrity failures wrap ErrCorruptCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := readFrame(r, checkpointMagic, checkpointVersion, ck); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return ck, nil
}

// SaveCheckpoint atomically writes ck to path: the bytes go to a temp file
// in the same directory, are fsynced, and only then renamed over path,
// followed by an fsync of the parent directory so the rename itself is
// durable. A crash at any point leaves either the old checkpoint or the new
// one — never a torn file.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	return SaveCheckpointFS(fsio.OS{}, path, ck)
}

// SaveCheckpointFS is SaveCheckpoint with the filesystem abstracted: every
// primitive of the atomic-write protocol (temp file, write, fsync, close,
// rename, parent-directory fsync) goes through fs. Production callers use
// SaveCheckpoint (the real OS); the crash-consistency torture tests inject
// chaos.CrashFS here to prove the protocol survives a kill at any point.
func SaveCheckpointFS(fs fsio.FS, path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("core: creating checkpoint temp file: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		fs.Remove(tmp.Name())
	}
	if err := WriteCheckpoint(tmp, ck); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmp.Name())
		return fmt.Errorf("core: closing checkpoint temp file: %w", err)
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		fs.Remove(tmp.Name())
		return fmt.Errorf("core: installing checkpoint: %w", err)
	}
	// Fsyncing only the file leaves the rename in the directory's dirty
	// metadata; on a crash the directory entry can still point at the old
	// inode (or nothing). Fsync the directory to make the rename durable.
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("core: syncing checkpoint directory: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies the checkpoint at path. A missing file
// returns an error satisfying errors.Is(err, fs.ErrNotExist).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
