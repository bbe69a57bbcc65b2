package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/frozen"
)

// httpOwnerCluster builds a 2-member cluster whose other member is an
// httptest peer answering every table GET with handler, and returns it
// with a key that peer owns.
func httpOwnerCluster(t *testing.T, handler http.HandlerFunc) (*Cluster, string) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	c, err := New(Config{
		Self:        selfURL,
		Peers:       []string{selfURL, ts.URL},
		PeerTimeout: 5 * time.Second,
		Transport:   &HTTPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, keyOwnedBy(t, c, ts.URL)
}

// TestHTTPTransportBoundsTheRecord: a fill is read sized from its
// Content-Length and bounded by frozen.MaxRecordBytes.  A length past
// the bound is refused before anything of that size is allocated, a
// chunked body past the bound is refused once it passes it, and a body
// shorter than its length is refused.  Each is an error against the
// owner's breaker, and the fetch degrades to local compute.
func TestHTTPTransportBoundsTheRecord(t *testing.T) {
	chunk := make([]byte, 1<<20)
	for _, c := range []struct {
		name    string
		handler http.HandlerFunc
		// maxAlloc bounds the bytes the fetch may allocate; 0 skips.
		maxAlloc uint64
	}{
		{"length past the bound", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(frozen.MaxRecordBytes+1))
			w.WriteHeader(http.StatusOK)
		}, 1 << 20},
		{"chunked past the bound", func(w http.ResponseWriter, r *http.Request) {
			for sent := 0; sent <= frozen.MaxRecordBytes; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return // the fetch gave up
				}
				w.(http.Flusher).Flush()
			}
		}, 0},
		{"shorter than its length", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "1000")
			w.WriteHeader(http.StatusOK)
			w.Write(chunk[:10])
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, key := httpOwnerCluster(t, c.handler)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, _, err := cl.Fetch(context.Background(), key)
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("Fetch = %v, want ErrUnavailable", err)
			}
			if alloc := m1.TotalAlloc - m0.TotalAlloc; c.maxAlloc > 0 && alloc > c.maxAlloc {
				t.Errorf("the refused fetch allocated %d bytes, want at most %d", alloc, c.maxAlloc)
			}
			st := cl.Stats()
			if st.Errors != 1 || st.Degrades != 1 || st.Peers[0].Errors != 1 {
				t.Errorf("stats %+v: want one error against the owner and one degrade", st)
			}
		})
	}
}

// TestHTTPTransportReadsUnframedRecord: an owner that sends no
// Content-Length (an older lalrd answering chunked) still fills, read
// to EOF under the bound; a framed answer reads the same bytes.
func TestHTTPTransportReadsUnframedRecord(t *testing.T) {
	raw, _ := frozen.FreezeBody("fp", bytes.Repeat([]byte("body "), 20000))
	for _, framed := range []bool{false, true} {
		cl, key := httpOwnerCluster(t, func(w http.ResponseWriter, r *http.Request) {
			if framed {
				w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
			}
			for b := raw; len(b) > 0; b = b[min(len(b), 4096):] {
				w.Write(b[:min(len(b), 4096)])
				w.(http.Flusher).Flush()
			}
		})
		got, _, err := cl.Fetch(context.Background(), key)
		if err != nil || !bytes.Equal(got, raw) {
			t.Errorf("framed %t: Fetch = %d bytes, %v; want the %d-byte record", framed, len(got), err, len(raw))
		}
	}
}
