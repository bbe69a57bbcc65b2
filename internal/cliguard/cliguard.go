// Package cliguard registers the resource-governance flags shared by
// the CLI tools (lalrgen, grammarlint, lalrbench) and the lalrd
// server, translating them into the guard vocabulary: -timeout becomes
// a context deadline, -max-states becomes state-count ceilings, and
// -keep-going selects the batch policy that survives individual
// failures.  Keeping the translation in one place keeps the
// tools' flag surfaces identical; lalrd registers the same governance
// flags (reinterpreted per request) plus its capacity flags via
// RegisterServer.
package cliguard

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"repro/internal/guard"
)

// Flags holds the parsed governance flags of one tool invocation.
type Flags struct {
	// Timeout bounds the whole run's wall clock (0 = none).
	Timeout time.Duration
	// MaxStates bounds both the LR(0) and the canonical LR(1) state
	// counts per grammar (0 = none).
	MaxStates int
	// KeepGoing makes batch tools analyze every grammar even when some
	// fail, reporting the failures at the end; single-grammar tools
	// downgrade governance aborts to a warning and a clean exit.
	KeepGoing bool
}

// Register installs -timeout, -max-states and -keep-going on fs and
// returns the destination struct, populated after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort analysis after this wall-clock duration (e.g. 5s; 0 = no limit)")
	fs.IntVar(&f.MaxStates, "max-states", 0, "abort analysis past this many LR(0) or LR(1) states per grammar (0 = no limit)")
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "keep analyzing remaining grammars when one fails; report failures at the end")
	return f
}

// Limits returns the per-grammar resource ceilings the flags imply.
func (f *Flags) Limits() guard.Limits {
	return guard.Limits{MaxStates: f.MaxStates, MaxLR1States: f.MaxStates}
}

// Context returns the run-wide context implied by -timeout and its
// cancel function (a no-op when no timeout is set).  The caller must
// invoke the cancel function on exit.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), f.Timeout)
}

// Governed reports whether any governance aborts are possible — used by
// single-grammar tools to decide whether -keep-going has anything to
// downgrade.
func (f *Flags) Governed() bool { return f.Timeout > 0 || f.MaxStates > 0 }

// Recoverable reports whether err is a governance abort (-keep-going
// downgrades these): a cancellation, a resource-limit trip, or a
// contained internal panic.
func Recoverable(err error) bool {
	var internal *guard.ErrInternal
	return errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrLimit) || errors.As(err, &internal)
}

// Size is a byte count parsed from a human-friendly flag value: a
// plain integer is bytes, and KB/MB/GB suffixes (case-insensitive,
// optionally with iB spelling) scale by 1024.
type Size int64

// String renders the size back in the largest exact unit, so -help
// shows "64MB" rather than 67108864.
func (s *Size) String() string {
	v := int64(*s)
	switch {
	case v >= 1<<30 && v%(1<<30) == 0:
		return fmt.Sprintf("%dGB", v>>30)
	case v >= 1<<20 && v%(1<<20) == 0:
		return fmt.Sprintf("%dMB", v>>20)
	case v >= 1<<10 && v%(1<<10) == 0:
		return fmt.Sprintf("%dKB", v>>10)
	default:
		return strconv.FormatInt(v, 10)
	}
}

// Set implements flag.Value.
func (s *Size) Set(v string) error {
	t := strings.ToUpper(strings.TrimSpace(v))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		scale  int64
	}{{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10}} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.scale
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("invalid size %q (want e.g. 64MB, 512KB, or bytes)", v)
	}
	*s = Size(n * mult)
	return nil
}

// LogFormat selects the access-log encoding: "text" (slog's key=value
// form, readable on a terminal) or "json" (one JSON object per line,
// for log shippers).  It is a flag.Value so a typo fails flag parsing
// instead of silently defaulting.
type LogFormat string

// String implements flag.Value.
func (f *LogFormat) String() string { return string(*f) }

// Set implements flag.Value.
func (f *LogFormat) Set(v string) error {
	switch v {
	case "text", "json":
		*f = LogFormat(v)
		return nil
	default:
		return fmt.Errorf("invalid log format %q (want text or json)", v)
	}
}

// Logger builds a structured logger writing to w in the selected
// format.
func (f LogFormat) Logger(w io.Writer) *slog.Logger {
	if f == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// ServerFlags holds lalrd's parsed flags: the same governance
// vocabulary as the batch tools — reinterpreted per request, since a
// server's unit of failure is one request, not one process — plus the
// serving capacity knobs.
type ServerFlags struct {
	// Timeout bounds each request's pipeline wall clock (0 = none);
	// the per-process meaning of the CLI flag makes no sense for a
	// long-running daemon.
	Timeout time.Duration
	// MaxStates bounds LR(0)/LR(1) state counts per request (0 =
	// none).  Requests may tighten it, never widen it.
	MaxStates int
	// CacheSize is the response cache's byte budget.
	CacheSize Size
	// MaxInflight bounds concurrently admitted analysis requests;
	// excess requests are rejected with 429 (0 = unlimited).
	MaxInflight int
	// LogFormat selects the access-log encoding (text or json).
	LogFormat LogFormat
	// StoreDir is the on-disk frozen-table store directory; empty
	// disables it.  With a store, analyze misses freeze their packed
	// tables + canonical body, and restarts serve previously-seen
	// grammars without re-analysis.
	StoreDir string
}

// DefaultCacheSize is the lalrd response-cache budget when -cache-size
// is not given.
const DefaultCacheSize = Size(64 << 20)

// RegisterServer installs lalrd's flag set on fs and returns the
// destination struct, populated after fs.Parse.
func RegisterServer(fs *flag.FlagSet) *ServerFlags {
	f := &ServerFlags{CacheSize: DefaultCacheSize, LogFormat: "text"}
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort each request's analysis after this wall-clock duration (e.g. 5s; 0 = no limit)")
	fs.IntVar(&f.MaxStates, "max-states", 0, "abort requests past this many LR(0) or LR(1) states (0 = no limit)")
	fs.Var(&f.CacheSize, "cache-size", "response cache byte budget (e.g. 64MB; 0 disables caching)")
	fs.IntVar(&f.MaxInflight, "max-inflight", 0, "reject analysis requests beyond this many in flight (0 = unlimited)")
	fs.Var(&f.LogFormat, "log-format", "access-log encoding: text or json")
	fs.StringVar(&f.StoreDir, "store-dir", "", "frozen-table store directory for warm restarts (empty = disabled)")
	return f
}

// Limits returns the per-request resource ceilings the flags imply —
// the same mapping as Flags.Limits, so the five tools agree on what
// -max-states means.
func (f *ServerFlags) Limits() guard.Limits {
	return guard.Limits{MaxStates: f.MaxStates, MaxLR1States: f.MaxStates}
}
