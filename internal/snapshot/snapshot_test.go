package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{Name: "heat", Count: 42}
	b, err := Encode(KindJob, 7, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out payload
	env, err := Decode(b, KindJob, &out)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if env.Seq != 7 || env.Kind != KindJob || env.Version != Version {
		t.Fatalf("envelope = %+v", env)
	}
	if out != in {
		t.Fatalf("payload round-trip: got %+v want %+v", out, in)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not json at all"), KindJob, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("garbage: err = %v, want ErrNotSnapshot", err)
	}
	if _, err := Decode([]byte(`{"magic":"something-else","version":1}`), KindJob, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("wrong magic: err = %v, want ErrNotSnapshot", err)
	}
}

func TestDecodeRejectsVersionKindChecksum(t *testing.T) {
	b, err := Encode(KindJob, 1, payload{Name: "x"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	bad := strings.Replace(string(b), `"version":1`, `"version":99`, 1)
	if _, err := Decode([]byte(bad), KindJob, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: err = %v, want ErrVersion", err)
	}

	if _, err := Decode(b, KindSweep, nil); !errors.Is(err, ErrKind) {
		t.Fatalf("kind: err = %v, want ErrKind", err)
	}

	corrupt := strings.Replace(string(b), `"name":"x"`, `"name":"y"`, 1)
	if _, err := Decode([]byte(corrupt), KindJob, nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum: err = %v, want ErrChecksum", err)
	}
}

func TestWriteAtomicAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindJob, 3, payload{Name: "fft", Count: 9}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	if _, err := os.Stat(TmpPath(path)); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after commit: %v", err)
	}
	var out payload
	env, err := Load(path, KindJob, &out)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if env.Seq != 3 || out.Name != "fft" || out.Count != 9 {
		t.Fatalf("loaded env=%+v payload=%+v", env, out)
	}
}

// A kill during the staged write leaves a torn temp file next to a
// complete previous snapshot; recovery must use the previous snapshot.
func TestLoadRecoverTornTmpFallsBackToCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindJob, 5, payload{Name: "good", Count: 5}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	full, err := Encode(KindJob, 6, payload{Name: "torn", Count: 6})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), full[:len(full)/2], 0o644); err != nil {
		t.Fatalf("writing torn tmp: %v", err)
	}

	var out payload
	env, src, err := LoadRecover(path, KindJob, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != path || env.Seq != 5 || out.Name != "good" {
		t.Fatalf("recovered src=%s env=%+v payload=%+v, want committed snapshot", src, env, out)
	}
}

// A kill between the staged fsync and the rename leaves the newest
// snapshot in the temp file; recovery must prefer it by sequence.
func TestLoadRecoverNewerValidTmpWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindJob, 5, payload{Name: "old", Count: 5}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	newer, err := Encode(KindJob, 6, payload{Name: "new", Count: 6})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), newer, 0o644); err != nil {
		t.Fatalf("writing tmp: %v", err)
	}

	var out payload
	env, src, err := LoadRecover(path, KindJob, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != TmpPath(path) || env.Seq != 6 || out.Name != "new" {
		t.Fatalf("recovered src=%s env=%+v payload=%+v, want temp snapshot", src, env, out)
	}
}

func TestLoadRecoverTornCommittedUsesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	full, err := Encode(KindJob, 2, payload{Name: "tmp-only", Count: 2})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatalf("writing torn committed file: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), full, 0o644); err != nil {
		t.Fatalf("writing tmp: %v", err)
	}

	var out payload
	_, src, err := LoadRecover(path, KindJob, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != TmpPath(path) || out.Name != "tmp-only" {
		t.Fatalf("recovered src=%s payload=%+v, want temp snapshot", src, out)
	}
}

func TestLoadRecoverNothingValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := LoadRecover(path, KindJob, nil); err == nil {
		t.Fatal("LoadRecover on missing files: want error")
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRecover(path, KindJob, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("LoadRecover on junk: err = %v, want ErrNotSnapshot", err)
	}
}
