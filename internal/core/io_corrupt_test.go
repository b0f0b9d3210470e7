package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/chaos"
)

func savedModelBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := New(tinyConfig()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsTruncatedModel(t *testing.T) {
	data := savedModelBytes(t)
	for _, n := range []int{0, 4, len(data) / 2, len(data) - 3} {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestLoadRejectsBitFlippedModel(t *testing.T) {
	// Flip one bit at every eighth offset in the payload region: each must
	// fail the CRC — no flipped byte may silently load as garbage weights.
	base := savedModelBytes(t)
	for off := 24; off < len(base); off += 8 {
		data := append([]byte(nil), base...)
		chaos.FlipBit(data, off, uint(off%8))
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at %d: want checksum error, got %v", off, err)
		}
	}
}

func TestLoadRejectsNewerModelVersion(t *testing.T) {
	data := savedModelBytes(t)
	data[8], data[9], data[10], data[11] = 0, 0, 0, 42
	_, err := Load(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future format version: want newer-version error, got %v", err)
	}
}

// TestLoadLegacyVersionZero: files written before the checksummed
// container (raw gob of modelFile) must keep loading.
func TestLoadLegacyVersionZero(t *testing.T) {
	m := New(tinyConfig())
	var buf bytes.Buffer
	mf := modelFile{Cfg: m.Cfg, Params: autograd.Snapshot(m.params)}
	if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("legacy model failed to load: %v", err)
	}
	if got.Cfg != m.Cfg {
		t.Fatalf("legacy config mismatch: %+v vs %+v", got.Cfg, m.Cfg)
	}
}

func TestLoadRejectsNonFiniteParams(t *testing.T) {
	m := New(tinyConfig())
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		params := autograd.Snapshot(m.params)
		params[1][0] = poison
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&modelFile{Cfg: m.Cfg, Params: params}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("poison %v: want non-finite rejection, got %v", poison, err)
		}
	}
}

// TestReadCheckpointRejectsHugeDeclaredLength: a bit flip in the header's
// length field used to drive a multi-GiB make([]byte, h.Length) before any
// integrity check ran (found by FuzzReadCheckpoint). The cap must reject it
// as corruption without attempting the allocation.
func TestReadCheckpointRejectsHugeDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	ck := &Checkpoint{Cfg: tinyConfig(), Seed: 1}
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header layout: magic[8] version[4] length[8] crc[4], big-endian.
	for i := 12; i < 20; i++ {
		data[i] = 0xff
	}
	_, err := ReadCheckpoint(bytes.NewReader(data))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("huge declared length: want ErrCorruptCheckpoint, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("error should mention the cap, got %v", err)
	}
}

// TestLoadRejectsAbsurdLegacyConfig: the legacy v0 path is raw gob with no
// CRC, so a crafted file controls Config completely. Absurd dimensions used
// to reach New() and panic or allocate unboundedly; Validate must reject
// them as corruption.
func TestLoadRejectsAbsurdLegacyConfig(t *testing.T) {
	bad := []Config{
		{EmbedDim: 0},
		{EmbedDim: 1 << 30, GNNLayers: 1, GNNHidden: 4, Heads: 1, FFDim: 4, MLP1Hidden: 4, RAUHidden: 4},
		{EmbedDim: -8, GNNHidden: 4, Heads: 1, FFDim: 4, MLP1Hidden: 4, RAUHidden: 4},
		func() Config { c := tinyConfig(); c.Heads = 3; return c }(), // EmbedDim % Heads != 0
		func() Config { c := tinyConfig(); c.LossTemp = math.NaN(); return c }(),
	}
	for i, cfg := range bad {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&modelFile{Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("case %d: crafted config %+v: want ErrCorruptCheckpoint, got %v", i, cfg, err)
		}
	}
}

// TestGNNLayersZeroRejected: the edge embedding concatenates the outputs of
// the GCN's layers, so a model of none has nothing to concatenate and its
// first Splits panicked (nn.GCN.Forward's ConcatCols). Validate rejects it
// by name, and Load fails on a model file, checksummed or legacy, that
// says so, instead of handing back a model that panics on its first request.
func TestGNNLayersZeroRejected(t *testing.T) {
	cfg := tinyConfig()
	cfg.GNNLayers = 0
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Config.GNNLayers = 0 out of range [1,") {
		t.Fatalf("Validate with GNNLayers 0: got %v", err)
	}
	m := New(cfg)
	var container, legacy bytes.Buffer
	if err := m.Save(&container); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&legacy).Encode(&modelFile{Cfg: cfg, Params: autograd.Snapshot(m.params)}); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"container": &container, "legacy": &legacy} {
		if got, err := Load(buf); !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), "GNNLayers") {
			t.Fatalf("%s file with GNNLayers 0: loaded %v, error %v", name, got != nil, err)
		}
	}
}

// TestSaveCheckpointDurableRoundTrip: SaveCheckpoint (now with a parent-dir
// fsync after the rename) must still round-trip, overwrite atomically, and
// leave no temp files behind.
func TestSaveCheckpointDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ck.bin"
	ck := &Checkpoint{Cfg: tinyConfig(), Epoch: 3, Seed: 7, BestValMLU: 1.5}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer epoch; the rename must replace, not append.
	ck.Epoch = 4
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || got.Seed != 7 || got.BestValMLU != 1.5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestLoadRejectsParamCardinalityMismatch(t *testing.T) {
	m := New(tinyConfig())

	// Wrong tensor count.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&modelFile{Cfg: m.Cfg, Params: [][]float64{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "parameter tensors") {
		t.Fatalf("tensor-count mismatch: got %v", err)
	}

	// Right count, wrong length in one tensor.
	params := autograd.Snapshot(m.params)
	params[2] = params[2][:len(params[2])-1]
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&modelFile{Cfg: m.Cfg, Params: params}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("tensor-length mismatch: got %v", err)
	}
}
