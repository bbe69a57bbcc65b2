package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/frozen"
)

// ErrNotFound is the authoritative "the peer is healthy and does not
// have it" answer.  It is not a peer failure: the breaker records it
// as a success, and the caller goes straight to local compute.
var ErrNotFound = errors.New("cluster: peer does not have the table")

// Transport moves frozen-table bytes between fleet members.  The
// production implementation is HTTPTransport; tests substitute an
// in-memory one.  Implementations must honor ctx.
type Transport interface {
	// Fetch retrieves the raw FRZ1 bytes for a fingerprint from a peer,
	// returning ErrNotFound when the peer authoritatively lacks it.
	// The bytes are the caller's to keep; any other error, a record
	// past frozen.MaxRecordBytes included, counts against the peer.
	Fetch(ctx context.Context, peer, fingerprint string) ([]byte, error)
	// Offer pushes raw FRZ1 bytes to the peer that owns the
	// fingerprint, so ring owners converge to hold their key range
	// even when requests land elsewhere.  Best effort.
	Offer(ctx context.Context, peer, fingerprint string, raw []byte) error
}

// PeerTablePath is the peer-exchange endpoint prefix on every lalrd:
// GET serves raw frozen bytes, PUT accepts an offered table.
const PeerTablePath = "/v1/peer/table/"

// HTTPTransport is the production Transport: peer base URLs are lalrd
// addresses, exchanges are plain HTTP against PeerTablePath.  Request
// lifetimes come from the caller's contexts, so the client needs no
// global timeout.  A fetched record is read with frozen.ReadRecord:
// exactly its Content-Length into one allocation, bounded by
// frozen.MaxRecordBytes; an owner that sends no length (an older lalrd
// answering chunked) is read to EOF under the same bound.
type HTTPTransport struct {
	// Client is the HTTP client to use; nil uses a zero http.Client.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{}
}

// Fetch implements Transport.
func (t *HTTPTransport) Fetch(ctx context.Context, peer, fingerprint string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+PeerTablePath+fingerprint, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return frozen.ReadRecord(resp.Body, resp.ContentLength)
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, ErrNotFound
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: peer %s answered status %d", peer, resp.StatusCode)
	}
}

// Offer implements Transport.
func (t *HTTPTransport) Offer(ctx context.Context, peer, fingerprint string, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+PeerTablePath+fingerprint, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: peer %s rejected offer with status %d", peer, resp.StatusCode)
	}
	return nil
}
