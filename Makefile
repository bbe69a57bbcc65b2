GO ?= go

.PHONY: ci build vet test race benchsmoke smoke guard-smoke ambig-smoke bench metrics lint-corpus

ci: build vet test race smoke benchsmoke guard-smoke ambig-smoke lint-corpus

# The benchmark is a separate module that imports internal/*, so the
# root build does not compile it; build (output discarded) and vet it
# here so a change to an internal API cannot break it unseen.
build:
	$(GO) build ./...
	cd lalrdbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Standard vet plus the repo's own checkers (both speak the -vettool
# protocol with stdlib only): nilrecorder enforces the nil-receiver
# guard pattern on exported obs and telemetry methods; guardloop
# requires every potentially unbounded loop in the search and fixpoint
# engines (ambig, cluster, digraph, glr, grammar, lint, treecount) to hit a guard.Budget
# checkpoint or carry an explicit //guardloop:ok waiver.  First, any
# Go file gofmt would rewrite fails the target, named.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files are not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o bin/nilrecorder ./internal/analyzers/nilrecorder
	$(GO) vet -vettool=$(CURDIR)/bin/nilrecorder ./...
	$(GO) build -o bin/guardloop ./internal/analyzers/guardloop
	$(GO) vet -vettool=$(CURDIR)/bin/guardloop ./...

test:
	$(GO) test ./...

# The concurrent components — the parallel driver, the sharded
# response cache (singleflight, LRU under contention), the server's
# request handling, the shard-merged telemetry histograms, the frozen
# store consulted from request goroutines, the per-conflict ambiguity
# walks, and the cluster peer layer (breakers shared by request
# goroutines, async offers) — run under the race detector, alongside
# the serial Digraph and prop engines they call.  cmd/lalrd's
# TestClusterSmoke replays the corpus concurrently over a 3-node fleet.
# The root package's batch tests push real analyses and lint runs
# through the worker pool, and lint's parallel test walks one grammar's
# conflicts on four workers sharing its automaton and analysis.
race:
	$(GO) test -race ./internal/driver/... ./internal/cache/... ./internal/server/... ./internal/telemetry/... ./internal/digraph/... ./internal/prop/... ./internal/frozen/... ./internal/ambig/... ./internal/cluster/... ./cmd/lalrd/...
	$(GO) test -race -run 'TestAnalyzeAll|TestLintAll' .
	$(GO) test -race -run TestParallelMatchesSerial ./internal/lint/

# One-iteration pass over every benchmark: catches bit-rot in the bench
# code (and the alloc-regression gates' setup) without paying for real
# measurement.  BenchmarkPeerFill is the fill path's B/op and allocs/op
# over a loopback fleet.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench PeerFill -benchtime 1x -run '^$$' ./internal/server

# Smoke-check the instrumented pipeline end to end: the metrics emitter
# exercises LR(0) construction, all look-ahead methods, table build and
# packing on the whole corpus.
smoke:
	$(GO) run ./cmd/lalrbench -quick -metrics-out /dev/null

# Governance smoke (DESIGN.md § 9): the limit-trip, cancellation and
# fault-injection tests (the driver ones under -race), then a bounded
# corpus run of lalrbench — tight -max-states must abort with a typed
# guard error (nonzero exit) without -keep-going, and exit clean with
# it.
guard-smoke:
	$(GO) test -run 'TestAnalyze(CanonicalLimitTrip|LR0LimitTrip|PreCancelledContext|CancelMidRun|AllInjectedPanicIsolation|AllFailFastStops)|TestLintGoverned|FuzzAnalyze' .
	$(GO) test ./internal/guard/
	$(GO) test -race -run 'TestRunCollectErrorOrderDeterministic|TestRunFailFastCancelsRest|TestRunRecoversPanic' ./internal/driver/
	$(GO) build -o bin/lalrbench ./cmd/lalrbench
	./bin/lalrbench -quick -timeout 5s -max-states 64 -metrics-out /dev/null 2>bin/guard-smoke.err; \
		test $$? -ne 0 && grep -q 'guard:' bin/guard-smoke.err
	./bin/lalrbench -quick -timeout 5s -max-states 64 -keep-going -metrics-out /dev/null

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Ambiguity smoke (DESIGN.md § 13): the prover must reach both proven
# verdicts on the canonical pair — dangling-else is a true ambiguity
# (GL040, witness confirmed by both oracles), not-lalr is an LALR(1)
# inadequacy only (GL041, search space exhausted) — and the report must
# be byte-identical serial vs parallel, as must the report on the
# grammars with the expensive walks (lua, csub, pascal).
ambig-smoke:
	$(GO) build -o bin/grammarlint ./cmd/grammarlint
	./bin/grammarlint -corpus dangling-else,not-lalr -parallel 1 > bin/ambig-smoke-1.txt
	./bin/grammarlint -corpus dangling-else,not-lalr -parallel 4 > bin/ambig-smoke-4.txt
	cmp bin/ambig-smoke-1.txt bin/ambig-smoke-4.txt
	grep -q 'GL040.*proven ambiguity' bin/ambig-smoke-1.txt
	grep -q 'GL041.*not an ambiguity' bin/ambig-smoke-1.txt
	./bin/grammarlint -corpus lua,csub,pascal -parallel 1 > bin/ambig-heavy-1.txt
	./bin/grammarlint -corpus lua,csub,pascal -parallel 4 > bin/ambig-heavy-4.txt
	cmp bin/ambig-heavy-1.txt bin/ambig-heavy-4.txt

# Gate the corpus on the grammar linter: every corpus grammar is linted
# against its registry-pinned conflict budget; any error-severity
# finding (new conflicts, budget drift, reads cycles, useless symbols
# promoted by -Werror) fails the build.
lint-corpus:
	$(GO) run ./cmd/grammarlint -Werror -severity=error

# Regenerate the committed metrics snapshot.
metrics:
	$(GO) run ./cmd/lalrbench -quick -metrics-out BENCH_core.json
