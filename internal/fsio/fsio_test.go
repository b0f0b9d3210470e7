package fsio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOSRoundTrip drives the real filesystem through the whole atomic
// write protocol: create-temp, write, fsync, close, rename over the
// target, fsync the directory, then remove.
func TestOSRoundTrip(t *testing.T) {
	var fs FS = OS{}
	dir := t.TempDir()
	target := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := fs.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(f.Name()) != dir || !strings.HasPrefix(filepath.Base(f.Name()), "ckpt-") {
		t.Fatalf("temp file %q, want ckpt-*.tmp in %s", f.Name(), dir)
	}
	if n, err := f.Write([]byte("new weights")); err != nil || n != len("new weights") {
		t.Fatalf("write: %d bytes, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(f.Name(), target); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "new weights" {
		t.Fatalf("target reads %q, %v after the rename", got, err)
	}
	if _, err := os.Stat(f.Name()); !os.IsNotExist(err) {
		t.Fatalf("temp file still there after the rename: %v", err)
	}

	if err := fs.Remove(target); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("target still there after Remove: %v", err)
	}
	if err := fs.Remove(target); !os.IsNotExist(err) {
		t.Fatalf("second Remove: %v, want not-exist", err)
	}
}

// TestOSSyncDirMissing: fsyncing a directory that does not exist is an
// error, not one of the ignored unsupported-fsync cases.
func TestOSSyncDirMissing(t *testing.T) {
	if err := (OS{}).SyncDir(filepath.Join(t.TempDir(), "gone")); !os.IsNotExist(err) {
		t.Fatalf("SyncDir on a missing directory: %v, want not-exist", err)
	}
}

// TestOSCreateTempMissingDir: a temp file cannot be created in a directory
// that does not exist, and no File comes back.
func TestOSCreateTempMissingDir(t *testing.T) {
	f, err := (OS{}).CreateTemp(filepath.Join(t.TempDir(), "gone"), "x-*")
	if err == nil || f != nil {
		t.Fatalf("CreateTemp in a missing directory: %v, %v", f, err)
	}
}
