package frozen

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendBytesAndPutBytesRoundTrip covers the peer-exchange surface:
// raw bytes out of one store must validate into another and load back
// identically.
func TestAppendBytesAndPutBytesRoundTrip(t *testing.T) {
	a, err := OpenStore(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(filepath.Join(t.TempDir(), "b"))
	if err != nil {
		t.Fatal(err)
	}
	td, _ := goldenData(t)

	if _, err := a.AppendBytes(nil, td.Fingerprint); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cold AppendBytes: %v, want ErrNotFound", err)
	}
	if err := a.PutBytes(td.Fingerprint, Freeze(td)); err != nil {
		t.Fatal(err)
	}
	raw, err := a.AppendBytes(nil, td.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, Freeze(td)) {
		t.Fatal("AppendBytes diverges from the frozen encoding")
	}

	if err := b.PutBytes(td.Fingerprint, raw); err != nil {
		t.Fatal(err)
	}
	ft, err := b.Load(td.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ft.Body, td.Body) {
		t.Fatal("table filled from peer bytes diverges from the original")
	}
}

// TestPutBytesRejectsCorruptAndLyingBytes: a fill-from-peer must never
// plant a table the store would refuse to serve.
func TestPutBytesRejectsCorruptAndLyingBytes(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	td, _ := goldenData(t)
	raw := Freeze(td)

	// Any single-byte corruption must be rejected and leave no file.
	for _, off := range []int{0, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5a
		if err := s.PutBytes(td.Fingerprint, mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("PutBytes accepted a byte flip at %d: %v", off, err)
		}
	}
	// Valid bytes under the wrong fingerprint: the peer is lying about
	// the content address.
	lie := "1111111111111111111111111111111111111111111111111111111111111111"
	if err := s.PutBytes(lie, raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("PutBytes accepted bytes recording a different fingerprint: %v", err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("rejected puts left %d files in the store", n)
	}
}

// TestQuarantineBitFlipSweep: for every single-byte corruption of a
// stored table, Load must fail with ErrCorrupt, Quarantine must move
// the file aside as <fp>.corrupt, and a re-Save must restore service.
func TestQuarantineBitFlipSweep(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	td, _ := goldenData(t)
	raw := Freeze(td)
	p := filepath.Join(s.Dir(), td.Fingerprint+".frz")
	q := filepath.Join(s.Dir(), td.Fingerprint+".corrupt")

	// Sweep a spread of offsets (the full sweep is TestDecodeBitFlips'
	// job; here the store behavior around each corruption is the point).
	for off := 0; off < len(raw); off += 97 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(td.Fingerprint); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: Load = %v, want ErrCorrupt", off, err)
		}
		if err := s.Quarantine(td.Fingerprint); err != nil {
			t.Fatalf("flip at %d: Quarantine: %v", off, err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("flip at %d: corrupt file still present after quarantine", off)
		}
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("flip at %d: quarantine file missing: %v", off, err)
		}
		if _, err := s.Load(td.Fingerprint); !errors.Is(err, ErrNotFound) {
			t.Fatalf("flip at %d: quarantined table still loads: %v", off, err)
		}
		// Recompute path: a fresh Save must restore service.
		if err := s.PutBytes(td.Fingerprint, Freeze(td)); err != nil {
			t.Fatalf("flip at %d: re-freeze after quarantine: %v", off, err)
		}
		if _, err := s.Load(td.Fingerprint); err != nil {
			t.Fatalf("flip at %d: Load after re-freeze: %v", off, err)
		}
		if err := os.Remove(q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuarantineMissingIsNoop: two requests racing to quarantine the
// same damaged table must both succeed.
func TestQuarantineMissingIsNoop(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	fp := "2222222222222222222222222222222222222222222222222222222222222222"
	if err := s.Quarantine(fp); err != nil {
		t.Fatalf("quarantine of an absent file: %v", err)
	}
	if err := s.Quarantine("../escape"); err == nil {
		t.Fatal("hostile fingerprint not rejected")
	}
}

// TestAppendBytesAppendsAfterDst: AppendBytes appends the record after
// what dst holds, leaving that prefix alone, and on every refusal —
// absent, corrupt, or recording another fingerprint — hands dst back
// unextended.
func TestAppendBytesAppendsAfterDst(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	td, _ := goldenData(t)
	if err := s.PutBytes(td.Fingerprint, Freeze(td)); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := s.AppendBytes(append(make([]byte, 0, 8), prefix...), td.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), Freeze(td)...)) {
		t.Fatal("AppendBytes did not append the record after dst")
	}

	p := filepath.Join(s.Dir(), td.Fingerprint+".frz")
	lie := "3333333333333333333333333333333333333333333333333333333333333333"
	if err := os.WriteFile(filepath.Join(s.Dir(), lie+".frz"), Freeze(td), 0o644); err != nil {
		t.Fatal(err)
	}
	mut := Freeze(td)
	mut[len(mut)/2] ^= 0x5a
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fp   string
		want error
	}{
		{td.Fingerprint, ErrCorrupt},
		{lie, ErrCorrupt},
		{"4444444444444444444444444444444444444444444444444444444444444444", ErrNotFound},
	} {
		got, err := s.AppendBytes(prefix, c.fp)
		if !errors.Is(err, c.want) || !bytes.Equal(got, prefix) {
			t.Errorf("AppendBytes(%s…) = %q, %v; want the prefix back and %v", c.fp[:8], got, err, c.want)
		}
	}
}
