// Package frozen is a versioned binary format for packed parse tables
// plus the canonical analysis response they belong to, designed for
// zero-copy loading: a frozen table is one file read and one header
// parse, after which the row-displacement arrays are served directly
// out of the file bytes through little-endian views — no per-element
// decode, no unsafe, O(1) allocations per table.
//
// Layout (all integers little-endian):
//
//	offset  size        field
//	0       4           magic "FRZ1"
//	4       4           version (currently 1)
//	8       4           CRC-32 (IEEE) over everything from offset 16
//	12      4           section count
//	16      12×count    section table: id uint32, offset uint32, length uint32
//	...                 section payloads (int32 sections are raw LE arrays)
//
// Sections carry the packed table of internal/packed — DefaultReduce,
// the ACTION Base/Next/Check triple, the GOTO triple — plus the content
// fingerprint the table was computed from, the state count, and an
// opaque body (lalrd stores the canonical AnalyzeResponse JSON there,
// so a frozen hit can answer a request without re-analysis).  Table
// sections may be empty with a state count of 0: lalrd writes such
// body-only records, since serving reads only the body.
//
// Decode never panics on hostile input: truncated, corrupted or
// CRC-mismatched bytes yield a *DecodeError matching the ErrCorrupt
// sentinel (fuzzed in frozen_fuzz_test.go).
package frozen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Format constants.
const (
	magic      = "FRZ1"
	version    = 1
	headerSize = 16
)

// MaxRecordBytes bounds a frozen record moved between fleet members,
// on every hop that reads one off the wire (a fetch through ReadRecord,
// an offer on the owner).  A record is one canonical JSON body, plus
// packed row-displacement arrays when an older node froze it; the
// largest corpus grammar freezes well under a megabyte.
const MaxRecordBytes = 64 << 20

// Section ids of format version 1.
const (
	secMeta          = 1 // numStates uint32
	secFingerprint   = 2
	secDefaultReduce = 3
	secBase          = 4
	secNext          = 5
	secCheck         = 6
	secGotoBase      = 7
	secGotoNext      = 8
	secGotoCheck     = 9
	secBody          = 10
	numSections      = 10
)

// ErrCorrupt is the sentinel every *DecodeError matches with errors.Is:
// the bytes are not a well-formed frozen table.
var ErrCorrupt = errors.New("frozen: corrupt table")

// DecodeError reports why a byte slice failed to decode, with the file
// offset of the problem where meaningful.
type DecodeError struct {
	Offset int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("frozen: corrupt table at offset %d: %s", e.Offset, e.Reason)
}

// Is matches the ErrCorrupt sentinel.
func (e *DecodeError) Is(target error) bool { return target == ErrCorrupt }

func corrupt(off int, format string, args ...any) error {
	return &DecodeError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// Int32s is a read-only little-endian int32 array view over file bytes.
// It is the zero-copy mechanism: no alignment requirement, no unsafe,
// one bounds-checked load per access.
type Int32s struct{ b []byte }

// Len returns the element count.
func (v Int32s) Len() int { return len(v.b) / 4 }

// At returns element i.
func (v Int32s) At(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// TableData is the materialized (encode-side) form of a frozen table.
type TableData struct {
	NumStates   int
	Fingerprint string

	DefaultReduce []int32
	Base          []int32
	Next          []int32
	Check         []int32
	GotoBase      []int32
	GotoNext      []int32
	GotoCheck     []int32

	// Body is an opaque payload frozen alongside the tables; lalrd
	// stores the canonical response bytes so frozen hits skip both
	// analysis and re-marshalling.
	Body []byte
}

// Table is the decoded (view-side) form: every array is a view into the
// frozen bytes, which must stay alive and unmodified while the Table is
// in use.
type Table struct {
	NumStates   int
	Fingerprint string

	DefaultReduce Int32s
	Base          Int32s
	Next          Int32s
	Check         Int32s
	GotoBase      Int32s
	GotoNext      Int32s
	GotoCheck     Int32s

	Body []byte
}

// Action looks up the packed ACTION entry for (state, term) with the
// same default-reduction miss rule as packed.Tables.Action, straight
// out of the frozen views.  The returned value uses the
// lalrtable.Action encoding.
func (t *Table) Action(state, term int) int32 {
	i := int(t.Base.At(state)) + term
	if i >= 0 && i < t.Check.Len() && t.Check.At(i) == int32(state) {
		return t.Next.At(i)
	}
	if d := t.DefaultReduce.At(state); d >= 0 {
		return d<<2 | 2 // lalrtable.MakeReduce
	}
	return 0
}

// Goto looks up the packed GOTO entry, or -1.
func (t *Table) Goto(state, nt int) int {
	i := int(t.GotoBase.At(state)) + nt
	if i >= 0 && i < t.GotoCheck.Len() && t.GotoCheck.At(i) == int32(state) {
		return int(t.GotoNext.At(i))
	}
	return -1
}

// Freeze encodes td into the version-1 binary format.
func Freeze(td *TableData) []byte {
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint32(meta, uint32(td.NumStates))
	payloads := [numSections][]byte{
		secMeta - 1:          meta,
		secFingerprint - 1:   []byte(td.Fingerprint),
		secDefaultReduce - 1: int32Bytes(td.DefaultReduce),
		secBase - 1:          int32Bytes(td.Base),
		secNext - 1:          int32Bytes(td.Next),
		secCheck - 1:         int32Bytes(td.Check),
		secGotoBase - 1:      int32Bytes(td.GotoBase),
		secGotoNext - 1:      int32Bytes(td.GotoNext),
		secGotoCheck - 1:     int32Bytes(td.GotoCheck),
		secBody - 1:          td.Body,
	}
	size := headerSize + 12*numSections
	for _, p := range payloads {
		size += len(p)
	}
	out := make([]byte, headerSize, size)
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[4:], version)
	// CRC backpatched below.
	binary.LittleEndian.PutUint32(out[12:], numSections)
	off := headerSize + 12*numSections
	for id, p := range payloads {
		var sect [12]byte
		binary.LittleEndian.PutUint32(sect[0:], uint32(id+1))
		binary.LittleEndian.PutUint32(sect[4:], uint32(off))
		binary.LittleEndian.PutUint32(sect[8:], uint32(len(p)))
		out = append(out, sect[:]...)
		off += len(p)
	}
	for _, p := range payloads {
		out = append(out, p...)
	}
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(out[headerSize:]))
	return out
}

// FreezeBody encodes a body-only record: the fingerprint and the body,
// with empty table sections and NumStates 0.  It also returns the
// record's body section, which aliases the record, so a caller that
// keeps both the record and the body holds one allocation.
func FreezeBody(fingerprint string, body []byte) (raw, frozenBody []byte) {
	raw = Freeze(&TableData{Fingerprint: fingerprint, Body: body})
	// The body is the last section Freeze writes.
	return raw, raw[len(raw)-len(body):]
}

func int32Bytes(a []int32) []byte {
	b := make([]byte, 4*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// Decode parses frozen bytes into zero-copy views.  It validates the
// magic, version, CRC and every section bound before returning; any
// violation is a *DecodeError (matching ErrCorrupt), never a panic.
// The returned Table aliases b.
func Decode(b []byte) (*Table, error) {
	if len(b) < headerSize {
		return nil, corrupt(len(b), "truncated header (%d bytes, need %d)", len(b), headerSize)
	}
	if string(b[:4]) != magic {
		return nil, corrupt(0, "bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != version {
		return nil, corrupt(4, "unsupported version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(b[headerSize:]), binary.LittleEndian.Uint32(b[8:]); got != want {
		return nil, corrupt(8, "CRC mismatch: computed %08x, stored %08x", got, want)
	}
	nsect := int(binary.LittleEndian.Uint32(b[12:]))
	if nsect != numSections {
		return nil, corrupt(12, "section count %d, want %d", nsect, numSections)
	}
	tableEnd := headerSize + 12*nsect
	if len(b) < tableEnd {
		return nil, corrupt(len(b), "truncated section table")
	}
	var sections [numSections][]byte
	for k := 0; k < nsect; k++ {
		at := headerSize + 12*k
		id := binary.LittleEndian.Uint32(b[at:])
		off := int(binary.LittleEndian.Uint32(b[at+4:]))
		n := int(binary.LittleEndian.Uint32(b[at+8:]))
		if id < 1 || id > numSections {
			return nil, corrupt(at, "unknown section id %d", id)
		}
		if off < tableEnd || n < 0 || off+n < off || off+n > len(b) {
			return nil, corrupt(at, "section %d bounds [%d,%d) outside payload [%d,%d)", id, off, off+n, tableEnd, len(b))
		}
		if sections[id-1] != nil {
			return nil, corrupt(at, "duplicate section id %d", id)
		}
		sections[id-1] = b[off : off+n : off+n]
	}
	ints := func(id int) (Int32s, error) {
		s := sections[id-1]
		if len(s)%4 != 0 {
			return Int32s{}, corrupt(0, "section %d length %d not a multiple of 4", id, len(s))
		}
		return Int32s{b: s}, nil
	}
	if len(sections[secMeta-1]) != 4 {
		return nil, corrupt(0, "meta section length %d, want 4", len(sections[secMeta-1]))
	}
	t := &Table{
		NumStates:   int(binary.LittleEndian.Uint32(sections[secMeta-1])),
		Fingerprint: string(sections[secFingerprint-1]),
		Body:        sections[secBody-1],
	}
	var err error
	for _, f := range []struct {
		id  int
		dst *Int32s
	}{
		{secDefaultReduce, &t.DefaultReduce},
		{secBase, &t.Base},
		{secNext, &t.Next},
		{secCheck, &t.Check},
		{secGotoBase, &t.GotoBase},
		{secGotoNext, &t.GotoNext},
		{secGotoCheck, &t.GotoCheck},
	} {
		if *f.dst, err = ints(f.id); err != nil {
			return nil, err
		}
	}
	if t.NumStates < 0 ||
		t.DefaultReduce.Len() != t.NumStates ||
		t.Base.Len() != t.NumStates ||
		t.GotoBase.Len() != t.NumStates {
		return nil, corrupt(0, "state count %d inconsistent with per-state sections (%d/%d/%d)",
			t.NumStates, t.DefaultReduce.Len(), t.Base.Len(), t.GotoBase.Len())
	}
	if t.Next.Len() != t.Check.Len() {
		return nil, corrupt(0, "next/check length mismatch: %d vs %d", t.Next.Len(), t.Check.Len())
	}
	if t.GotoNext.Len() != t.GotoCheck.Len() {
		return nil, corrupt(0, "goto next/check length mismatch: %d vs %d", t.GotoNext.Len(), t.GotoCheck.Len())
	}
	return t, nil
}
