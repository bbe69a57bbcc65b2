package frozen

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
	"repro/internal/packed"
)

// goldenData builds the deterministic TableData the committed golden
// was generated from: the packed tables of the corpus "expr" grammar
// under its real content fingerprint.
func goldenData(t testing.TB) (*TableData, *packed.Tables) {
	t.Helper()
	e, err := grammars.Get("expr")
	if err != nil {
		t.Fatal(err)
	}
	g := grammars.MustLoad("expr")
	a := lr0.New(g, nil)
	p := packed.Pack(lalrtable.Build(a, core.Compute(a).Sets()))
	next := make([]int32, len(p.Next))
	for i, act := range p.Next {
		next[i] = int32(act)
	}
	return &TableData{
		NumStates:     p.G.NumStates,
		Fingerprint:   cache.Fingerprint(e.Src, "deremer-pennello"),
		DefaultReduce: p.DefaultReduce,
		Base:          p.Base,
		Next:          next,
		Check:         p.Check,
		GotoBase:      p.GotoBase,
		GotoNext:      p.GotoNext,
		GotoCheck:     p.GotoCheck,
		Body:          []byte(`{"schema":"lalrd/v1","kind":"analysis"}`),
	}, p
}

const goldenPath = "testdata/golden.frz"

// TestGoldenPinned pins the byte-level format: freezing the golden
// inputs must reproduce the committed golden file exactly.  Regenerate
// with UPDATE_FROZEN_GOLDEN=1 after a deliberate format version bump.
func TestGoldenPinned(t *testing.T) {
	td, _ := goldenData(t)
	got := Freeze(td)
	if os.Getenv("UPDATE_FROZEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_FROZEN_GOLDEN=1 to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Freeze output diverges from committed golden (%d vs %d bytes); "+
			"format changes need a version bump and UPDATE_FROZEN_GOLDEN=1", len(got), len(want))
	}
}

// TestRoundTrip: every field must survive Freeze → Decode, and the
// zero-copy Action/Goto lookups must agree with packed.Tables on the
// full table.
func TestRoundTrip(t *testing.T) {
	td, p := goldenData(t)
	ft, err := Decode(Freeze(td))
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumStates != td.NumStates || ft.Fingerprint != td.Fingerprint {
		t.Fatalf("header fields diverge: %d/%q vs %d/%q",
			ft.NumStates, ft.Fingerprint, td.NumStates, td.Fingerprint)
	}
	if !bytes.Equal(ft.Body, td.Body) {
		t.Fatal("body diverges")
	}
	for name, pair := range map[string]struct {
		view Int32s
		want []int32
	}{
		"DefaultReduce": {ft.DefaultReduce, td.DefaultReduce},
		"Base":          {ft.Base, td.Base},
		"Next":          {ft.Next, td.Next},
		"Check":         {ft.Check, td.Check},
		"GotoBase":      {ft.GotoBase, td.GotoBase},
		"GotoNext":      {ft.GotoNext, td.GotoNext},
		"GotoCheck":     {ft.GotoCheck, td.GotoCheck},
	} {
		if pair.view.Len() != len(pair.want) {
			t.Fatalf("%s: length %d, want %d", name, pair.view.Len(), len(pair.want))
		}
		for i := range pair.want {
			if pair.view.At(i) != pair.want[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, pair.view.At(i), pair.want[i])
			}
		}
	}
	g := p.G.G
	for q := 0; q < td.NumStates; q++ {
		for term := 0; term < g.NumTerminals(); term++ {
			if got, want := ft.Action(q, term), int32(p.Action(q, grammar.Sym(term))); got != want {
				t.Fatalf("Action(%d,%d) = %d, want %d", q, term, got, want)
			}
		}
		for nt := 0; nt < g.NumNonterminals(); nt++ {
			if got, want := ft.Goto(q, nt), p.Goto(q, nt); got != want {
				t.Fatalf("Goto(%d,%d) = %d, want %d", q, nt, got, want)
			}
		}
	}
}

// TestFreezeBodyAliasesRecord: FreezeBody writes the same bytes as
// Freeze of a body-only TableData, and its body section is the
// record's own body, which Decode finds at the same place.
func TestFreezeBodyAliasesRecord(t *testing.T) {
	td, _ := goldenData(t)
	raw, body := FreezeBody(td.Fingerprint, td.Body)
	if want := Freeze(&TableData{Fingerprint: td.Fingerprint, Body: td.Body}); !bytes.Equal(raw, want) {
		t.Fatal("FreezeBody differs from Freeze of the body-only record")
	}
	ft, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, td.Body) || &body[0] != &ft.Body[0] || cap(body) != len(body) {
		t.Fatal("body section is not the record's body, capped at its length")
	}
}

// TestDecodeTruncations: every prefix of a valid frozen table must
// decode to a typed error, never panic, never succeed.
func TestDecodeTruncations(t *testing.T) {
	td, _ := goldenData(t)
	full := Freeze(td)
	for n := 0; n < len(full); n++ {
		_, err := Decode(full[:n])
		if err == nil {
			t.Fatalf("Decode accepted a %d-byte truncation of a %d-byte table", n, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not match ErrCorrupt", n, err)
		}
	}
}

// TestDecodeBitFlips: the CRC covers every payload byte and the header
// fields are validated directly, so any single-byte corruption must be
// rejected.
func TestDecodeBitFlips(t *testing.T) {
	td, _ := goldenData(t)
	full := Freeze(td)
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		if _, err := Decode(mut); err == nil {
			t.Fatalf("Decode accepted a byte flip at offset %d", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not match ErrCorrupt", i, err)
		}
	}
}

// TestStoreRoundTrip covers the content-addressed store: miss, save,
// warm load, fingerprint-mismatch rejection, and hostile keys.
func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	td, _ := goldenData(t)
	if _, err := s.Load(td.Fingerprint); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cold Load: %v, want ErrNotFound", err)
	}
	if err := s.PutBytes(td.Fingerprint, Freeze(td)); err != nil {
		t.Fatal(err)
	}
	ft, err := s.Load(td.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ft.Body, td.Body) || ft.Fingerprint != td.Fingerprint {
		t.Fatal("loaded table diverges from saved")
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}

	// A file whose name disagrees with its recorded fingerprint must
	// not serve.
	lie := "0000000000000000000000000000000000000000000000000000000000000000"
	if err := os.Rename(
		filepath.Join(s.Dir(), td.Fingerprint+".frz"),
		filepath.Join(s.Dir(), lie+".frz"),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(lie); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched fingerprint: %v, want ErrCorrupt", err)
	}

	for _, bad := range []string{"", "../escape", "a/b", `a\b`, "x.frz"} {
		if _, err := s.Load(bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("hostile key %q not rejected: %v", bad, err)
		}
	}
}
