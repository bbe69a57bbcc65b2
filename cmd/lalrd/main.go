// Command lalrd is the grammar-analysis server: a long-running daemon
// exposing the DeRemer–Pennello pipeline over HTTP (the repro-api/1
// protocol) with a content-addressed response cache and admission
// control.
//
// Usage:
//
//	lalrd [flags]
//
// Flags:
//
//	-addr A         listen address (default 127.0.0.1:8077; :0 picks a port)
//	-port-file F    write the bound TCP port to F once listening
//	-cache-size S   response cache byte budget (e.g. 64MB; 0 disables caching)
//	-max-inflight N reject analysis requests beyond N in flight (0 = unlimited)
//	-timeout D      abort each request's analysis after duration D (0 = none)
//	-max-states N   abort requests past N LR(0)/LR(1) states (0 = none)
//	-log-format F   access-log encoding on stderr: text (default) or json
//	-store-dir D    frozen-table store for warm restarts (empty = disabled)
//	-peers URLS     comma-separated fleet member base URLs, self included
//	-self URL       this node's own base URL (required with -peers)
//	-ring-replicas N, -peer-timeout D, -breaker-failures N,
//	-breaker-cooldown D
//	                peer-layer tuning (see DESIGN.md § 14)
//
// The serving story is checked by go test: internal/server's tests
// hold every cache tier's bytes to the library's, and this package's
// tests boot the real serve path and a 3-node fleet on loopback.
//
// Endpoints: POST /v1/analyze, POST /v1/lint, POST /v1/batch,
// GET /v1/peer/table/{fp} and PUT (fleet-internal frozen-table
// exchange), GET /healthz (liveness), GET /readyz (readiness: 503
// while starting or draining), GET /metricz (JSON, or Prometheus text
// with ?format=prom), GET /debugz/traces, GET /debugz/traces/{id}.
// See DESIGN.md § 10–11 and § 14.
//
// The server shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 so balancers stop routing, the listener closes, in-flight
// requests drain (bounded by a grace period), then the peer layer
// closes and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliguard"
	"repro/internal/cluster"
	"repro/internal/frozen"
	"repro/internal/server"
)

// shutdownGrace bounds how long in-flight requests may drain after a
// shutdown signal before the server gives up on them.
const shutdownGrace = 10 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lalrd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lalrd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8077", "listen address (host:port; :0 picks a free port)")
		portFile = fs.String("port-file", "", "write the bound TCP port to this file once listening")
		peers    = fs.String("peers", "", "comma-separated fleet member base URLs, this node included (empty = single-node)")
		ccfg     cluster.Config
	)
	fs.StringVar(&ccfg.Self, "self", "", "this node's own base URL as it appears in -peers (required with -peers)")
	fs.IntVar(&ccfg.RingReplicas, "ring-replicas", 0, "consistent-hash virtual nodes per peer (0 = default)")
	fs.DurationVar(&ccfg.PeerTimeout, "peer-timeout", cluster.DefaultPeerTimeout, "ceiling for a fetch's one exchange with the ring owner")
	fs.IntVar(&ccfg.BreakerFailures, "breaker-failures", cluster.DefaultBreakerFailures, "consecutive peer failures that trip its circuit breaker")
	fs.DurationVar(&ccfg.BreakerCooldown, "breaker-cooldown", cluster.DefaultBreakerCooldown, "open period before a tripped breaker probes the peer again")
	sf := cliguard.RegisterServer(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cfg := server.Config{
		CacheBytes:     int64(sf.CacheSize),
		MaxInflight:    sf.MaxInflight,
		Limits:         sf.Limits(),
		RequestTimeout: sf.Timeout,
		StoreDir:       sf.StoreDir,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "lalrd: "+format+"\n", a...)
		},
		AccessLog: sf.LogFormat.Logger(os.Stderr),
	}
	// Peer list entries drop empty segments and trailing slashes, so
	// "a,, b/" and "a,b" name the same fleet.
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSuffix(strings.TrimSpace(p), "/"); p != "" {
			ccfg.Peers = append(ccfg.Peers, p)
		}
	}
	if len(ccfg.Peers) > 0 {
		if ccfg.Self == "" {
			return errors.New("-peers requires -self (this node's own base URL)")
		}
		ccfg.Self = strings.TrimSuffix(ccfg.Self, "/")
		ccfg.Transport = &cluster.HTTPTransport{}
		ccfg.Verify = verifyFrozen
		ccfg.Logf = cfg.Logf
		cl, err := cluster.New(ccfg)
		if err != nil {
			return err
		}
		cfg.Cluster = cl // the server owns it now; Close() releases it
	}
	return serve(out, cfg, *addr, *portFile)
}

// verifyFrozen is the peer-layer byte validator: fetched bytes must be
// a decodable FRZ1 record whose recorded fingerprint matches the one
// we asked for.  A failure counts against the serving peer.
func verifyFrozen(fp string, raw []byte) error {
	t, err := frozen.Decode(raw)
	if err != nil {
		return err
	}
	if t.Fingerprint != fp {
		return fmt.Errorf("peer bytes record fingerprint %q, want %q", t.Fingerprint, fp)
	}
	return nil
}

// serve listens on addr and runs the server until SIGINT/SIGTERM, then
// drains in-flight requests and exits.
func serve(out io.Writer, cfg server.Config, addr, portFile string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	cacheSize := cliguard.Size(cfg.CacheBytes)
	fmt.Fprintf(out, "lalrd: listening on http://%s (cache %s, max-inflight %d)\n",
		ln.Addr(), cacheSize.String(), cfg.MaxInflight)

	srv := server.New(cfg)
	defer srv.Close() // releases the peer layer (waits for inflight offers)
	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	srv.SetReady() // the listener is bound; /readyz may say so

	select {
	case err := <-errc:
		// Serve never returns nil; any return before a signal is a
		// listener failure.
		return err
	case <-ctx.Done():
	}
	stop()
	// Readiness flips first so balancers stop routing here, then the
	// listener closes and in-flight requests drain.
	srv.BeginDrain()
	fmt.Fprintln(out, "lalrd: shutting down, draining in-flight requests")
	dctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "lalrd: bye")
	return nil
}
