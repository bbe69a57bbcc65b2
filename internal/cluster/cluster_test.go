package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeTransport is an in-memory Transport: per-peer stored tables,
// per-peer scripted errors, exchange counts.
type fakeTransport struct {
	mu     sync.Mutex
	tables map[string]map[string][]byte // peer -> fp -> raw
	errs   map[string]error
	calls  map[string]int
	offers map[string]map[string][]byte
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{
		tables: map[string]map[string][]byte{},
		errs:   map[string]error{},
		calls:  map[string]int{},
		offers: map[string]map[string][]byte{},
	}
}

func (t *fakeTransport) put(peer, fp string, raw []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tables[peer] == nil {
		t.tables[peer] = map[string][]byte{}
	}
	t.tables[peer][fp] = raw
}

func (t *fakeTransport) setErr(peer string, err error) {
	t.mu.Lock()
	t.errs[peer] = err
	t.mu.Unlock()
}

func (t *fakeTransport) callCount(peer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[peer]
}

func (t *fakeTransport) Fetch(ctx context.Context, peer, fp string) ([]byte, error) {
	t.mu.Lock()
	t.calls[peer]++
	err := t.errs[peer]
	var raw []byte
	if m := t.tables[peer]; m != nil {
		raw = m[fp]
	}
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, ErrNotFound
	}
	return raw, nil
}

func (t *fakeTransport) Offer(ctx context.Context, peer, fp string, raw []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[peer]++
	if err := t.errs[peer]; err != nil {
		return err
	}
	if t.offers[peer] == nil {
		t.offers[peer] = map[string][]byte{}
	}
	t.offers[peer][fp] = append([]byte(nil), raw...)
	return nil
}

func (t *fakeTransport) offered(peer, fp string) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.offers[peer]; m != nil {
		return m[fp]
	}
	return nil
}

const (
	selfURL = "http://self"
	peerA   = "http://peer-a"
	peerB   = "http://peer-b"
)

// newTestCluster builds a 3-member cluster around a fake transport
// with fast, deterministic breaker knobs.
func newTestCluster(t *testing.T, ft *fakeTransport, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Self:            selfURL,
		Peers:           []string{selfURL, peerA, peerB},
		PeerTimeout:     200 * time.Millisecond,
		BreakerFailures: 3,
		BreakerCooldown: 50 * time.Millisecond,
		Transport:       ft,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// keyOwnedBy finds a key whose ring owner is the given member, so
// tests control which peer a fetch asks (or that it asks none).
func keyOwnedBy(t *testing.T, c *Cluster, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%064x", i)
		if c.Owner(key) == owner {
			return key
		}
	}
	t.Fatal("no key found with the desired owner")
	return ""
}

func TestFetchFillsFromOwner(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("frozen-bytes"))

	raw, from, err := c.Fetch(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "frozen-bytes" || from != peerA {
		t.Fatalf("got %q from %s, want frozen-bytes from %s", raw, from, peerA)
	}
	if st := c.Stats(); st.Fills != 1 || st.Degrades != 0 {
		t.Fatalf("stats = %+v, want one fill, no degrade", st)
	}
}

func TestFetchNotFoundIsAuthoritative(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)

	_, _, err := c.Fetch(context.Background(), key)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	st := c.Stats()
	if st.NotFound != 1 || st.Degrades != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want one clean not-found", st)
	}
	// A healthy miss is one exchange with the owner and nothing else.
	if got := ft.callCount(peerA); got != 1 {
		t.Fatalf("owner was asked %d times for an authoritative miss, want 1", got)
	}
	if got := ft.callCount(peerB); got != 0 {
		t.Fatalf("a replica was asked %d times after the owner's 404, want 0", got)
	}
}

func TestFetchDegradesWhenAllPeersError(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)
	restore := InjectFault(&Fault{Mode: FaultError}) // every exchange, both peers
	defer restore()

	_, _, err := c.Fetch(context.Background(), key)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	st := c.Stats()
	if st.Degrades != 1 {
		t.Fatalf("degrades = %d, want 1", st.Degrades)
	}
	if st.Errors == 0 {
		t.Fatalf("stats = %+v, want attempt errors recorded", st)
	}
}

func TestFetchSingleMemberFleetIsNoPeers(t *testing.T) {
	ft := newFakeTransport()
	c, err := New(Config{Self: selfURL, Peers: []string{selfURL}, Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Fetch(context.Background(), "abc"); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

// TestFetchBreakerTripsAndStopsTraffic: a dead owner costs each fetch
// one exchange and no wait, its breaker opens after BreakerFailures
// fetches, and from then on fetches spend no exchange at all.  No
// other peer is ever asked.
func TestFetchBreakerTripsAndStopsTraffic(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, func(cfg *Config) { cfg.BreakerCooldown = time.Hour })
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerB, key, []byte("replica-copy"))
	f := &Fault{Peer: peerA, Op: "fetch", Mode: FaultError}
	restore := InjectFault(f)
	defer restore()

	start := time.Now()
	for i := 1; i <= 3+2; i++ { // BreakerFailures = 3, then two refused
		if _, _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("fetch %d: err = %v, want ErrUnavailable", i, err)
		}
		if want := int64(min(i, 3)); f.Fired() != want {
			t.Fatalf("after fetch %d the owner saw %d exchanges, want %d", i, f.Fired(), want)
		}
		want := "closed"
		if i >= 3 {
			want = "open"
		}
		if state := c.Stats().Peers[0].State; state != want {
			t.Fatalf("after fetch %d the owner's breaker is %s, want %s", i, state, want)
		}
	}
	// A fetch never sleeps or waits on a second peer, so five fetches
	// against an instantly failing owner take no measurable time.
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("five fetches against a dead owner took %v", d)
	}
	if got := ft.callCount(peerA) + ft.callCount(peerB); got != 0 {
		t.Fatalf("fetches reached the transport %d times, want 0", got)
	}
	st := c.Stats()
	if st.Degrades != 5 || st.Errors != 3 || st.Peers[0].Trips != 1 {
		t.Fatalf("stats = %+v, want 5 degrades, 3 errors, 1 trip", st)
	}
	if st.Peers[1].State != "closed" || st.Peers[1].Errors != 0 {
		t.Fatalf("replica %+v, want it untouched", st.Peers[1])
	}
}

func TestFetchSelfOwnedKeyIsNoPeers(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, selfURL)
	ft.put(peerA, key, []byte("x"))
	ft.put(peerB, key, []byte("x"))
	if _, _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers for a self-owned key", err)
	}
	if got := ft.callCount(peerA) + ft.callCount(peerB); got != 0 {
		t.Fatalf("self-owned fetch reached the transport %d times, want 0", got)
	}
	if st := c.Stats(); st.Fills+st.NotFound+st.Degrades+st.Errors != 0 {
		t.Fatalf("stats = %+v, want no fetch outcome counted", st)
	}
}

func TestFetchBreakerHalfOpenProbeRecovers(t *testing.T) {
	ft := newFakeTransport()
	clk := newFakeClock()
	c := newTestCluster(t, ft, func(cfg *Config) {
		cfg.BreakerCooldown = time.Second
		cfg.now = clk.now
	})
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("recovered"))

	restore := InjectFault(&Fault{Peer: peerA, Mode: FaultError})
	for i := 0; i < 3; i++ {
		c.Fetch(context.Background(), key)
	}
	restore() // the partition heals

	// Before the cooldown the owner stays refused: the fetch degrades
	// and the owner sees no traffic.
	calls := ft.callCount(peerA)
	if _, _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fetch before cooldown: err = %v, want ErrUnavailable", err)
	}
	if got := ft.callCount(peerA); got != calls {
		t.Fatalf("breaker let traffic through before cooldown")
	}

	clk.advance(time.Second + time.Millisecond)
	raw, from, err := c.Fetch(context.Background(), key)
	if err != nil || from != peerA || string(raw) != "recovered" {
		t.Fatalf("post-cooldown probe: raw=%q from=%s err=%v, want recovered from owner", raw, from, err)
	}
	st := c.Stats()
	for _, p := range st.Peers {
		if p.Peer == peerA {
			if p.State != "closed" || p.Probes < 1 {
				t.Fatalf("owner after successful probe: %+v, want closed with >=1 probe", p)
			}
		}
	}
}

func TestFetchCorruptBytesCountAgainstPeer(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, func(cfg *Config) {
		cfg.Verify = func(fp string, raw []byte) error {
			if string(raw) != "good" {
				return errors.New("checksum mismatch")
			}
			return nil
		}
	})
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("good"))
	ft.put(peerB, key, []byte("good"))

	restore := InjectFault(&Fault{Peer: peerA, Op: "fetch", Mode: FaultCorrupt})
	defer restore()

	// Corrupt bytes from the owner degrade the fetch to local compute;
	// the replica's good copy is not consulted.
	raw, _, err := c.Fetch(context.Background(), key)
	if !errors.Is(err, ErrUnavailable) || raw != nil {
		t.Fatalf("raw=%q err=%v, want ErrUnavailable after the owner served corrupt bytes", raw, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Degrades != 1 || st.Peers[0].Errors != 1 {
		t.Fatalf("corrupt response was not recorded as one owner error and a degrade: %+v", st)
	}
	if got := ft.callCount(peerB); got != 0 {
		t.Fatalf("replica was asked %d times, want 0", got)
	}
}

func TestFetchDropFaultTimesOutPerAttempt(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, func(cfg *Config) { cfg.PeerTimeout = 20 * time.Millisecond })
	key := keyOwnedBy(t, c, peerA)
	restore := InjectFault(&Fault{Mode: FaultDrop})
	defer restore()

	start := time.Now()
	_, _, err := c.Fetch(context.Background(), key)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("dropped exchanges took %v — per-attempt timeout did not bound them", d)
	}
}

func TestFetchRespectsRemainingDeadline(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("x"))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	time.Sleep(3 * time.Millisecond)
	_, _, err := c.Fetch(ctx, key)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want immediate ErrUnavailable with no budget left", err)
	}
	if got := ft.callCount(peerA); got != 0 {
		t.Fatalf("fetch spent %d exchanges from an exhausted budget", got)
	}
}

func TestAttemptTimeoutReservesComputeBudget(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, func(cfg *Config) { cfg.PeerTimeout = 10 * time.Second })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if got := c.attemptTimeout(ctx); got > 520*time.Millisecond {
		t.Fatalf("attempt timeout %v spends more than half the remaining deadline", got)
	}
	if got := c.attemptTimeout(context.Background()); got != 10*time.Second {
		t.Fatalf("attempt timeout without a deadline = %v, want the configured ceiling", got)
	}
}

func TestOfferReachesOwner(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerB)
	owner := peerB

	c.Offer(key, []byte("pushed"))
	deadline := time.Now().Add(2 * time.Second)
	for ft.offered(owner, key) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("offer never reached owner %s", owner)
		}
		time.Sleep(time.Millisecond)
	}
	if string(ft.offered(owner, key)) != "pushed" {
		t.Fatalf("owner stored %q", ft.offered(owner, key))
	}
	if st := c.Stats(); st.Offers != 1 {
		t.Fatalf("offers = %d, want 1", st.Offers)
	}
}

func TestOfferSelfOwnedIsNoop(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, selfURL)
	c.Offer(key, []byte("x"))
	c.Close() // waits for any stray goroutine
	if ft.callCount(peerA)+ft.callCount(peerB) != 0 {
		t.Fatal("self-owned offer went to the network")
	}
}

func TestCloseStopsBackgroundWorkCleanly(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("x"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Fetch(context.Background(), key)
			c.Offer(key, []byte("y"))
		}()
	}
	wg.Wait()
	c.Close()
	if _, _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("fetch after close = %v, want ErrNoPeers", err)
	}
	c.Offer(key, []byte("z")) // must not panic or leak
	c.Close()                 // idempotent
}

func TestNewRejectsSelfNotInPeers(t *testing.T) {
	_, err := New(Config{Self: "http://x", Peers: []string{peerA}, Transport: newFakeTransport()})
	if err == nil {
		t.Fatal("New accepted a self URL missing from the peer list")
	}
}

func TestFaultModes(t *testing.T) {
	if FaultDrop.String() != "drop" || FaultDelay.String() != "delay" ||
		FaultCorrupt.String() != "corrupt" || FaultError.String() != "error" {
		t.Fatal("fault mode names changed")
	}
	f := &Fault{Peer: "peer-a", Op: "fetch", Skip: 1, Count: 2}
	if f.match(peerB, "fetch") {
		t.Fatal("matched wrong peer")
	}
	if f.match(peerA, "offer") {
		t.Fatal("matched wrong op")
	}
	if f.match(peerA, "fetch") {
		t.Fatal("skip was not honored")
	}
	if !f.match(peerA, "fetch") || !f.match(peerA, "fetch") {
		t.Fatal("count window refused matching exchanges")
	}
	if f.match(peerA, "fetch") {
		t.Fatal("count was not honored")
	}
	if f.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", f.Fired())
	}
}

func TestFaultDelayStallsThenProceeds(t *testing.T) {
	ft := newFakeTransport()
	c := newTestCluster(t, ft, nil)
	key := keyOwnedBy(t, c, peerA)
	ft.put(peerA, key, []byte("late"))
	ft.put(peerB, key, []byte("early"))
	restore := InjectFault(&Fault{Peer: peerA, Mode: FaultDelay, Delay: 30 * time.Millisecond})
	defer restore()

	start := time.Now()
	raw, _, err := c.Fetch(context.Background(), key)
	if err != nil || string(raw) != "late" {
		t.Fatalf("raw=%q err=%v", raw, err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay fault did not stall (took %v)", d)
	}
	// A slow owner is waited for, not raced: the replica is not asked.
	if got := ft.callCount(peerB); got != 0 {
		t.Fatalf("replica was asked %d times while the owner was slow, want 0", got)
	}
}
