package cluster

import (
	"context"
	"strings"
	"sync/atomic"
	"time"
)

// FaultMode selects what an injected fault does to a peer exchange.
type FaultMode int

const (
	// FaultDrop blackholes the exchange: it blocks until the caller's
	// context gives up, like a packet dropped on the floor.  This is
	// the mode that exercises the exchange's deadline share.
	FaultDrop FaultMode = iota
	// FaultDelay stalls the exchange for Fault.Delay, then lets it
	// proceed — a slow peer, not a dead one.
	FaultDelay
	// FaultCorrupt lets the exchange complete, then flips a byte in the
	// response — exercising the CRC/fingerprint verification path and
	// proving a corrupt peer counts as a failed one.
	FaultCorrupt
	// FaultError fails the exchange immediately with Fault.Err.
	FaultError
)

// String names the mode for test output.
func (m FaultMode) String() string {
	switch m {
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultError:
		return "error"
	default:
		return "drop"
	}
}

// Fault is a deterministic fault-injection point for peer exchanges,
// mirroring guard.Fault: it applies to exchanges whose peer and op
// match, letting tests reach every breaker state transition without a
// real flaky network.  Unlike guard.Fault it fires on every matching
// exchange while armed (Count 0) or on the first Count of them — a
// partition persists; a panic does not.
type Fault struct {
	// Peer matches exchanges to peers whose base URL contains it; ""
	// matches every peer.
	Peer string
	// Op matches the exchange kind: "fetch", "offer", or "" for any.
	Op string
	// Mode is what happens to a matching exchange.
	Mode FaultMode
	// Delay is the stall for FaultDelay.
	Delay time.Duration
	// Err is the error for FaultError (nil uses a generic one).
	Err error
	// Skip lets that many matching exchanges pass before firing.
	Skip int
	// Count bounds how many exchanges are affected after the skip;
	// 0 means every one while the fault stays armed.
	Count int

	seen  atomic.Int64
	fired atomic.Int64
}

// armedFault is the active injection, nil almost always.  Exchanges
// pay one atomic load when disarmed.
var armedFault atomic.Pointer[Fault]

// InjectFault arms f and returns a restore function that disarms it.
// Test-only: one fault at a time, like guard.InjectFault.
func InjectFault(f *Fault) (restore func()) {
	armedFault.Store(f)
	return func() { armedFault.Store(nil) }
}

// Fired reports how many exchanges the fault has affected.
func (f *Fault) Fired() int64 { return f.fired.Load() }

// match reports whether the fault applies to this exchange and claims
// one firing slot if so.
func (f *Fault) match(peer, op string) bool {
	if f.Peer != "" && !strings.Contains(peer, f.Peer) {
		return false
	}
	if f.Op != "" && f.Op != op {
		return false
	}
	if f.seen.Add(1)-1 < int64(f.Skip) {
		return false
	}
	if f.Count > 0 && f.fired.Load() >= int64(f.Count) {
		return false
	}
	f.fired.Add(1)
	return true
}

// errInjected is the FaultError default.
type errInjected struct{}

func (errInjected) Error() string { return "cluster: injected fault" }

// applyFaultBefore runs the pre-exchange half of an armed fault (drop,
// delay, error).  It returns (true, err) when the exchange must not
// proceed, and the corrupt flag for the post-exchange half.
func applyFaultBefore(ctx context.Context, peer, op string) (abort bool, err error, corrupt bool) {
	f := armedFault.Load()
	if f == nil || !f.match(peer, op) {
		return false, nil, false
	}
	switch f.Mode {
	case FaultDrop:
		<-ctx.Done()
		return true, ctx.Err(), false
	case FaultDelay:
		sleepCtx(ctx, f.Delay)
		if err := ctx.Err(); err != nil {
			return true, err, false
		}
		return false, nil, false
	case FaultError:
		if f.Err != nil {
			return true, f.Err, false
		}
		return true, errInjected{}, false
	case FaultCorrupt:
		return false, nil, true
	}
	return false, nil, false
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// corruptBytes flips one byte of a copy of b (the middle one, so
// headers and trailers are both plausible and the CRC is not).
func corruptBytes(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x40
	return out
}
