package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmokeHonorsCacheFlags exercises the flag plumbing: a bad size,
// a stray positional argument, -peers without -self and the retired
// -smoke flag are all usage errors that stop before anything listens.
func TestSmokeHonorsCacheFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-cache-size", "banana"},
		{"stray-arg"},
		{"-peers", "http://127.0.0.1:1,http://127.0.0.1:2"},
		{"-smoke"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("lalrd %s accepted", strings.Join(args, " "))
		}
	}
	if out.Len() != 0 {
		t.Errorf("a usage error still started a server:\n%s", out.String())
	}
}

// TestServeGracefulShutdown boots the real serve path on a random
// port with non-default capacity flags, confirms it answers, then
// delivers SIGTERM and expects a clean drain-and-exit.
func TestServeGracefulShutdown(t *testing.T) {
	portFile := filepath.Join(t.TempDir(), "port")
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-port-file", portFile,
			"-cache-size", "256KB", "-max-inflight", "8"}, &out)
	}()

	var port string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil {
			port = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port file never appeared; server output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%s/healthz", port))
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	if !strings.Contains(out.String(), "(cache 256KB, max-inflight 8)") {
		t.Errorf("serve did not boot with the flagged capacity:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "draining in-flight requests") {
		t.Errorf("shutdown did not report draining:\n%s", out.String())
	}
}
