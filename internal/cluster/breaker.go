package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed: the peer is believed healthy; exchanges flow.
	Closed BreakerState = iota
	// Open: the peer recently failed too much; exchanges are refused
	// locally (no network spent) until the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed; exactly one probe exchange is
	// allowed through.  Success closes the breaker, failure reopens it
	// for another full cooldown.
	HalfOpen
)

// String returns the state's wire/metrics form.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerConfig tunes one peer's circuit breaker.
type breakerConfig struct {
	// failures trips the breaker after this many consecutive errors.
	failures int
	// window and ratio trip it on failure rate: once window results
	// have been seen, a failure fraction >= ratio opens the circuit
	// even without a consecutive run (a peer failing every other
	// request is as unusable as one failing five in a row).
	window int
	ratio  float64
	// cooldown is how long the circuit stays open before a half-open
	// probe is allowed.
	cooldown time.Duration
}

// Breaker is a per-peer circuit breaker.  It is purely reactive — no
// background goroutine: state transitions happen inside Allow and
// Result, driven by the injected clock, which is what makes every
// transition reachable deterministically from tests.  All methods are
// safe for concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg breakerConfig
	now func() time.Time

	state       BreakerState
	consecutive int    // consecutive failures while closed
	results     []bool // sliding window of recent outcomes (true = ok)
	next        int    // results write cursor
	filled      int    // how much of the window is populated
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	trips, probes int64 // lifetime counters for telemetry
}

// newBreaker returns a closed Breaker; nil clock means time.Now.
func newBreaker(cfg breakerConfig, now func() time.Time) *Breaker {
	if cfg.failures <= 0 {
		cfg.failures = DefaultBreakerFailures
	}
	if cfg.window <= 0 {
		cfg.window = DefaultBreakerWindow
	}
	if cfg.ratio <= 0 || cfg.ratio > 1 {
		cfg.ratio = DefaultBreakerRatio
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = DefaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg, now: now, results: make([]bool, cfg.window)}
}

// Breaker defaults (see Config for the flag-exposed knobs).
const (
	DefaultBreakerFailures = 5
	DefaultBreakerWindow   = 20
	DefaultBreakerRatio    = 0.5
	DefaultBreakerCooldown = 5 * time.Second
)

// Allow reports whether an exchange with this peer may proceed.  In
// HalfOpen it admits exactly one probe: the first caller after the
// cooldown gets true, every other caller false until that probe's
// Result lands.  A caller that got true must call Result exactly once.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.cfg.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.probes++
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Result records the outcome of an allowed exchange and drives the
// state machine: a half-open probe's success closes the circuit and
// clears the history, its failure reopens for another cooldown; while
// closed, a consecutive-failure run or a window failure rate past the
// ratio trips it open.
func (b *Breaker) Result(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
		if ok {
			b.reset(Closed)
		} else {
			b.trip()
		}
		return
	}
	if b.state == Open {
		// A straggler from before the trip; its outcome is stale.
		return
	}
	b.results[b.next] = ok
	b.next = (b.next + 1) % len(b.results)
	if b.filled < len(b.results) {
		b.filled++
	}
	if ok {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.consecutive >= b.cfg.failures || b.windowRate() >= b.cfg.ratio {
		b.trip()
	}
}

// windowRate is the failure fraction of the populated window, or 0
// until the window is full (a cold window must not trip on its first
// failure).
func (b *Breaker) windowRate() float64 {
	if b.filled < len(b.results) {
		return 0
	}
	fails := 0
	for _, ok := range b.results {
		if !ok {
			fails++
		}
	}
	return float64(fails) / float64(len(b.results))
}

// trip opens the circuit and stamps the cooldown clock.
func (b *Breaker) trip() {
	b.reset(Open)
	b.openedAt = b.now()
	b.trips++
}

// reset moves to state with a clean history.
func (b *Breaker) reset(state BreakerState) {
	b.state = state
	b.consecutive = 0
	b.next, b.filled = 0, 0
	b.probing = false
}

// Cancel releases an Allow slot whose exchange was abandoned without a
// verdict (the caller gave up): a half-open probe slot is returned so
// the next caller may probe, and no outcome is recorded either way.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// State returns the current position, advancing Open to HalfOpen is
// NOT done here — observation must not consume the probe slot.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Counts returns the lifetime trip and probe counts.
func (b *Breaker) Counts() (trips, probes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips, b.probes
}
