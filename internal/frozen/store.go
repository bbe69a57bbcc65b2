package frozen

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ErrNotFound reports a fingerprint with no frozen table in the store.
var ErrNotFound = errors.New("frozen: table not in store")

// Store is a content-addressed directory of frozen tables: one
// `<fingerprint>.frz` file per analysis, written atomically, loaded
// zero-copy.  It is what makes lalrd restarts warm — the store outlives
// the in-memory response cache.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("frozen: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a fingerprint to its file.  Fingerprints are hex SHA-256
// strings (the repro.Fingerprint contract), so they are safe path
// segments; anything else is rejected to keep hostile keys out of the
// filesystem.
func (s *Store) path(fingerprint string) (string, error) {
	if fingerprint == "" || strings.ContainsAny(fingerprint, "/\\.") {
		return "", fmt.Errorf("frozen: invalid fingerprint %q", fingerprint)
	}
	return filepath.Join(s.dir, fingerprint+".frz"), nil
}

// Load reads and decodes the frozen table for a fingerprint: one file
// read, one header parse, zero per-element work.  It returns
// ErrNotFound when the store has no entry, a *DecodeError (matching
// ErrCorrupt) when the file is damaged, and ErrCorrupt also when the
// file's recorded fingerprint disagrees with its name — a store that
// lies about content addresses must not serve.
func (s *Store) Load(fingerprint string) (*Table, error) {
	_, t, err := s.read(nil, fingerprint)
	return t, err
}

// AppendBytes appends the raw validated FRZ1 bytes for a fingerprint
// to dst — the peer-serving path, which reads into a reused buffer:
// bytes go on the wire as stored, and the receiver re-validates.  The
// bytes are decode-checked before being returned so a node never ships
// a table it would refuse to load itself; errors follow Load's
// contract (ErrNotFound, ErrCorrupt), and on error dst comes back
// unextended.
func (s *Store) AppendBytes(dst []byte, fingerprint string) ([]byte, error) {
	b, _, err := s.read(dst, fingerprint)
	return b, err
}

// read is Load and AppendBytes: it appends the fingerprint's file to
// dst in one read, decodes what it appended, and checks the recorded
// fingerprint.  On error it returns dst[:len(dst)] with its capacity,
// so a pooled buffer keeps any growth.
func (s *Store) read(dst []byte, fingerprint string) ([]byte, *Table, error) {
	p, err := s.path(fingerprint)
	if err != nil {
		return dst, nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return dst, nil, ErrNotFound
		}
		return dst, nil, fmt.Errorf("frozen: load: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return dst, nil, fmt.Errorf("frozen: load: %w", err)
	}
	// A record file is written once, then renamed into place, so the
	// open file's size is its length.
	n := len(dst)
	b := slices.Grow(dst, int(fi.Size()))[:n+int(fi.Size())]
	if _, err := io.ReadFull(f, b[n:]); err != nil {
		return b[:n], nil, fmt.Errorf("frozen: load: %w", err)
	}
	t, err := Decode(b[n:])
	if err != nil {
		return b[:n], nil, err
	}
	if t.Fingerprint != fingerprint {
		return b[:n], nil, corrupt(0, "fingerprint mismatch: file %s records %q", p, t.Fingerprint)
	}
	return b, t, nil
}

// ReadRecord reads one frozen record off the wire: exactly size bytes
// into one allocation when the sender framed the body with its length,
// or, when size is -1 (no Content-Length), up to MaxRecordBytes read
// to EOF.  The allocation is made before the body arrives, so size must
// come from a sender the caller trusts, as a fetch's configured ring
// owner is; an untrusted body is read as it arrives instead.  A size past the bound is refused before anything is
// allocated, and a body shorter than its size is an error.  The bytes
// are not decoded; the caller validates them.
func ReadRecord(r io.Reader, size int64) ([]byte, error) {
	if size > MaxRecordBytes {
		return nil, fmt.Errorf("frozen: record of %d bytes exceeds the %d-byte bound", size, MaxRecordBytes)
	}
	if size >= 0 {
		b := make([]byte, size)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("frozen: reading a %d-byte record: %w", size, err)
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(r, MaxRecordBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > MaxRecordBytes {
		return nil, fmt.Errorf("frozen: record exceeds the %d-byte bound", MaxRecordBytes)
	}
	return b, nil
}

// PutBytes stores already-frozen bytes under a fingerprint, whether
// they were frozen here or filled from a peer.  The bytes are fully
// validated first (decode, CRC, recorded fingerprint must equal the
// claimed one), so a corrupt or lying peer can never plant a table;
// then the write is atomic: a temp file in the same directory, renamed
// into place without fsync.  A concurrent PutBytes of the same
// fingerprint is harmless — the fingerprint is a content address, so
// both writers hold identical bytes, and rename is atomic.
func (s *Store) PutBytes(fingerprint string, raw []byte) error {
	p, err := s.path(fingerprint)
	if err != nil {
		return err
	}
	t, err := Decode(raw)
	if err != nil {
		return err
	}
	if t.Fingerprint != fingerprint {
		return corrupt(0, "fingerprint mismatch: bytes record %q, claimed %q", t.Fingerprint, fingerprint)
	}
	tmp, err := os.CreateTemp(s.dir, ".frz-*")
	if err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("frozen: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	return nil
}

// Quarantine moves a damaged table aside as `<fingerprint>.corrupt`
// instead of deleting it (the evidence matters for debugging how it
// got damaged), clearing the way for a clean re-freeze after the next
// compute.  Quarantining a fingerprint with no file is a no-op: a
// concurrent quarantine of the same file must not fail the request.
func (s *Store) Quarantine(fingerprint string) error {
	p, err := s.path(fingerprint)
	if err != nil {
		return err
	}
	q := strings.TrimSuffix(p, ".frz") + ".corrupt"
	if err := os.Rename(p, q); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("frozen: quarantine: %w", err)
	}
	return nil
}

// Len counts the frozen tables currently in the store (for /metricz
// and smoke assertions).
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".frz") {
			n++
		}
	}
	return n, nil
}
