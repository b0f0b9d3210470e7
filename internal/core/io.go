package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"harpte/internal/autograd"
)

// modelFormatVersion is the current on-disk model schema. Version history:
//
//	0 — raw gob of modelFile (no container; the original format)
//	1 — checksummed container: magic, version, payload length, CRC-32,
//	    then the gob payload
//
// Readers accept both: version-0 files keep loading, and any flipped byte
// or truncation in a version-1 file fails the checksum instead of
// gob-decoding into silent garbage. Files from a newer schema fail with a
// clear error.
const modelFormatVersion = 1

// modelMagic identifies a containerized model file; exactly 8 bytes. Raw
// gob streams can never start with these bytes (gob begins with a type
// definition whose first byte is a small length).
var modelMagic = [8]byte{'H', 'A', 'R', 'P', 'M', 'O', 'D', 'L'}

// modelFile is the serialized representation of a trained model.
type modelFile struct {
	Cfg    Config
	Params [][]float64
}

// Save writes the model configuration and parameters to w: a versioned,
// CRC-checksummed container around a gob payload.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{Cfg: m.Cfg, Params: autograd.Snapshot(m.params)}
	if err := writeFrame(w, modelMagic, modelFormatVersion, &mf); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save — either the current
// checksummed container or a legacy version-0 raw gob stream. It rejects
// truncated or bit-flipped containers (checksum), files from a newer
// format version, parameter tensors of the wrong cardinality, and —
// because a model with poisoned weights would silently serve garbage —
// any parameter containing NaN or Inf.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var mf modelFile
	var err error
	if head, _ := br.Peek(len(modelMagic)); bytes.Equal(head, modelMagic[:]) {
		err = readFrame(br, modelMagic, modelFormatVersion, &mf)
	} else {
		err = gob.NewDecoder(br).Decode(&mf)
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	// Validate the deserialized Config before handing it to New: the legacy
	// version-0 format has no CRC, so crafted bytes can reach this point
	// and an absurd dimension would panic or allocate unboundedly.
	if err := mf.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %v", ErrCorruptCheckpoint, err)
	}
	m := New(mf.Cfg)
	if len(mf.Params) != len(m.params) {
		return nil, fmt.Errorf("core: model file has %d parameter tensors, expected %d",
			len(mf.Params), len(m.params))
	}
	for i, p := range m.params {
		if len(mf.Params[i]) != len(p.Val.Data) {
			return nil, fmt.Errorf("core: parameter %d has %d values, expected %d",
				i, len(mf.Params[i]), len(p.Val.Data))
		}
		for j, v := range mf.Params[i] {
			if !isFinite(v) {
				return nil, fmt.Errorf("core: parameter %d contains non-finite value %v at index %d",
					i, v, j)
			}
		}
		copy(p.Val.Data, mf.Params[i])
	}
	return m, nil
}
