package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tunable defaults (each has a -flag on lalrd; see cmd/lalrd).
const (
	// DefaultPeerTimeout is the ceiling for the one exchange a fetch
	// makes.
	DefaultPeerTimeout = 2 * time.Second
	// minPeerBudget is the least remaining request deadline worth
	// spending on the network at all; below it the fetch degrades to
	// local compute immediately.
	minPeerBudget = 10 * time.Millisecond
)

// ErrNoPeers reports that there is nobody to ask: the fingerprint is
// this node's own (ownership already put the table in its own store),
// the fleet has one member, or the cluster is closed.  It is not a
// failure — just the single-node path.
var ErrNoPeers = errors.New("cluster: no peers configured")

// ErrUnavailable reports that the ring owner could not serve a fill
// (breaker open, timeout, transport error, corrupt bytes, no budget).
// The caller must degrade to local computation; the error exists for
// telemetry, never for the client.
var ErrUnavailable = errors.New("cluster: peers unavailable")

// Config assembles a Cluster.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers lists every fleet member's base URL, self included.  The
	// list is static for the cluster's lifetime (membership changes
	// restart the nodes with a new list).
	Peers []string
	// RingReplicas is the virtual-node count per peer (0 = default).
	RingReplicas int
	// PeerTimeout bounds a fetch's one exchange; it is further
	// tightened to half the request's remaining deadline, so a slow
	// peer can never starve the local-compute fallback (0 = default).
	PeerTimeout time.Duration
	// BreakerFailures trips a peer's breaker after that many
	// consecutive errors; BreakerCooldown is the open period before a
	// half-open probe (0 = defaults each).  The failure-rate trip uses
	// DefaultBreakerWindow and DefaultBreakerRatio.
	BreakerFailures int
	BreakerCooldown time.Duration
	// Transport moves bytes; it must be set.
	Transport Transport
	// Verify validates fetched bytes before they count as a fill
	// (lalrd wires frozen.Decode + fingerprint equality).  A failure
	// counts against the peer like any other error.  Nil skips it.
	Verify func(fingerprint string, raw []byte) error
	// Logf receives diagnostics; nil discards.
	Logf func(format string, args ...any)

	// now is the breaker clock, a test seam; nil means time.Now.
	now func() time.Time
}

// peer is one remote fleet member and its health state.
type peer struct {
	url     string
	breaker *Breaker

	fills, errors atomic.Int64
}

// Cluster is the peer layer of one fleet member.  All methods are
// safe for concurrent use.
type Cluster struct {
	cfg  Config
	ring *Ring
	self string

	peers map[string]*peer
	order []string // deterministic Stats order

	observe func(peer string, d time.Duration) // hop-latency tap, set once before serving

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closed  atomic.Bool

	fills, notFound, degrades, errs atomic.Int64
	offers, offerFails              atomic.Int64
}

// New builds the peer layer.  Self must appear in Peers, and Transport
// must be set; a one-member fleet is valid (every Fetch answers
// ErrNoPeers, the single-node path).
func New(cfg Config) (*Cluster, error) {
	if cfg.Transport == nil {
		return nil, errors.New("cluster: Config.Transport is required")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  NewRing(cfg.Peers, cfg.RingReplicas),
		self:  cfg.Self,
		peers: make(map[string]*peer),
	}
	bcfg := breakerConfig{
		failures: cfg.BreakerFailures,
		cooldown: cfg.BreakerCooldown,
	}
	for _, u := range cfg.Peers {
		if u == cfg.Self {
			continue
		}
		c.peers[u] = &peer{url: u, breaker: newBreaker(bcfg, cfg.now)}
		c.order = append(c.order, u)
	}
	sort.Strings(c.order)
	c.baseCtx, c.cancel = context.WithCancel(context.Background())
	return c, nil
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Owner returns the fleet member owning a fingerprint.
func (c *Cluster) Owner(fingerprint string) string { return c.ring.Owner(fingerprint) }

// SetObserve installs the hop-latency tap (lalrd feeds its per-peer
// histograms).  Call before serving; not synchronized.
func (c *Cluster) SetObserve(f func(peer string, d time.Duration)) { c.observe = f }

// Close stops background work (inflight offers) and waits for it.
// Fetch and Offer after Close are no-ops; callers stop request traffic
// first (lalrd drains HTTP before closing the cluster).
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.cancel()
	c.wg.Wait()
}

// peerTimeout returns the configured exchange ceiling.
func (c *Cluster) peerTimeout() time.Duration {
	if c.cfg.PeerTimeout > 0 {
		return c.cfg.PeerTimeout
	}
	return DefaultPeerTimeout
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Fetch asks the ring owner of a fingerprint for its frozen table
// bytes: one exchange, admitted by the owner's circuit breaker and
// bounded by attemptTimeout.  On success it returns verified raw FRZ1
// bytes and the owner that served them.  It returns ErrNoPeers when
// there is nobody to ask (the fingerprint is self-owned, the fleet has
// one member, the cluster is closed), ErrNotFound when the owner
// authoritatively lacks the table, and an error wrapping
// ErrUnavailable for any other answer — in every error case the
// caller computes locally; no failure here is client-visible.
func (c *Cluster) Fetch(ctx context.Context, fingerprint string) ([]byte, string, error) {
	if c.closed.Load() {
		return nil, "", ErrNoPeers
	}
	p := c.peers[c.ring.Owner(fingerprint)]
	if p == nil {
		return nil, "", ErrNoPeers
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < minPeerBudget {
		// Too little budget left to spend any of it on the network.
		c.degrades.Add(1)
		return nil, "", fmt.Errorf("%w: %v of request budget left", ErrUnavailable, time.Until(dl).Round(time.Millisecond))
	}
	if !p.breaker.Allow() {
		c.degrades.Add(1)
		return nil, "", fmt.Errorf("%w: %s breaker open", ErrUnavailable, p.url)
	}
	raw, err := c.exchangeFetch(ctx, p, fingerprint)
	if err == nil && c.cfg.Verify != nil {
		if verr := c.cfg.Verify(fingerprint, raw); verr != nil {
			err = fmt.Errorf("cluster: peer %s returned corrupt table: %w", p.url, verr)
		}
	}
	switch {
	case err == nil:
		p.breaker.Result(true)
		p.fills.Add(1)
		c.fills.Add(1)
		return raw, p.url, nil
	case errors.Is(err, ErrNotFound):
		// An authoritative miss is a healthy answer.
		p.breaker.Result(true)
		c.notFound.Add(1)
		return nil, "", ErrNotFound
	case ctx.Err() != nil && errors.Is(err, context.Canceled):
		// The caller gave up: the owner answered nothing, so blame it
		// for nothing.
		p.breaker.Cancel()
	default:
		p.breaker.Result(false)
		p.errors.Add(1)
		c.errs.Add(1)
	}
	c.degrades.Add(1)
	return nil, "", fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// exchangeFetch is the fetch's wire exchange: fault-injection hook,
// timeout derived from the request's remaining deadline, hop-latency
// observation.
func (c *Cluster) exchangeFetch(ctx context.Context, p *peer, fingerprint string) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout(ctx))
	defer cancel()
	start := time.Now()
	defer func() {
		if c.observe != nil {
			c.observe(p.url, time.Since(start))
		}
	}()
	abort, err, corrupt := applyFaultBefore(actx, p.url, "fetch")
	if abort {
		return nil, err
	}
	raw, err := c.cfg.Transport.Fetch(actx, p.url, fingerprint)
	if err == nil && corrupt {
		raw = corruptBytes(raw)
	}
	return raw, err
}

// attemptTimeout derives the exchange's ceiling: the configured
// PeerTimeout, tightened to half the request's remaining deadline so
// the local-compute fallback always keeps the other half.
func (c *Cluster) attemptTimeout(ctx context.Context) time.Duration {
	t := c.peerTimeout()
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; half < t {
			t = half
		}
	}
	if t < time.Millisecond {
		t = time.Millisecond
	}
	return t
}

// Offer pushes freshly frozen bytes to the fingerprint's ring owner,
// asynchronously and best-effort: owners converge to hold their key
// range even when the computing request landed elsewhere, which is
// what makes later peer fills deterministic rather than lucky.  No-op
// when this node owns the fingerprint, the fleet has one member, or
// the owner's breaker is open.
func (c *Cluster) Offer(fingerprint string, raw []byte) {
	if c.closed.Load() {
		return
	}
	owner := c.ring.Owner(fingerprint)
	p := c.peers[owner]
	if p == nil { // self-owned or unknown
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if !p.breaker.Allow() {
			return
		}
		ctx, cancel := context.WithTimeout(c.baseCtx, c.peerTimeout())
		defer cancel()
		err := c.exchangeOffer(ctx, p, fingerprint, raw)
		p.breaker.Result(err == nil)
		if err != nil {
			c.offerFails.Add(1)
			c.logf("cluster: offer %s to %s: %v", fingerprint[:min(12, len(fingerprint))], p.url, err)
			return
		}
		c.offers.Add(1)
	}()
}

// exchangeOffer is one offer wire attempt (no retries: the next
// compute of the same fingerprint offers again).
func (c *Cluster) exchangeOffer(ctx context.Context, p *peer, fingerprint string, raw []byte) error {
	start := time.Now()
	defer func() {
		if c.observe != nil {
			c.observe(p.url, time.Since(start))
		}
	}()
	abort, err, corrupt := applyFaultBefore(ctx, p.url, "offer")
	if abort {
		return err
	}
	if corrupt {
		raw = corruptBytes(raw)
	}
	return c.cfg.Transport.Offer(ctx, p.url, fingerprint, raw)
}

// PeerStats is one remote member's health snapshot.
type PeerStats struct {
	Peer   string `json:"peer"`
	State  string `json:"state"` // closed | open | half-open
	Trips  int64  `json:"trips"`
	Probes int64  `json:"probes"`
	Fills  int64  `json:"fills"`
	Errors int64  `json:"errors"`
}

// Stats is the cluster section of /metricz.
type Stats struct {
	Self     string      `json:"self"`
	Members  int         `json:"members"`
	Peers    []PeerStats `json:"peers"`
	Fills    int64       `json:"fills"`
	NotFound int64       `json:"not_found"`
	Degrades int64       `json:"degrades"`
	Errors   int64       `json:"errors"`
	// Retries and Hedges are always 0: a fetch makes one exchange with
	// the ring owner.  They remain for readers of the old schema.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	Offers    int64 `json:"offers"`
	OfferFail int64 `json:"offer_fails"`
}

// Stats snapshots the counters and every peer's breaker state.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Self:      c.self,
		Members:   len(c.peers) + 1,
		Fills:     c.fills.Load(),
		NotFound:  c.notFound.Load(),
		Degrades:  c.degrades.Load(),
		Errors:    c.errs.Load(),
		Offers:    c.offers.Load(),
		OfferFail: c.offerFails.Load(),
	}
	for _, u := range c.order {
		p := c.peers[u]
		trips, probes := p.breaker.Counts()
		st.Peers = append(st.Peers, PeerStats{
			Peer:   u,
			State:  p.breaker.State().String(),
			Trips:  trips,
			Probes: probes,
			Fills:  p.fills.Load(),
			Errors: p.errors.Load(),
		})
	}
	return st
}
