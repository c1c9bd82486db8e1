# Pre-merge gate: `make check` is the required bar for every change (see
# README "Install & test"). Each target is also usable on its own.

GO ?= go

.PHONY: check fmt vet test race build bench bench-smoke bench-compare stream-equiv checkpoint-equiv provisional-equiv cluster-equiv alloc-guard perfbench-selftest

check: fmt vet race stream-equiv checkpoint-equiv provisional-equiv cluster-equiv alloc-guard perfbench-selftest bench-smoke bench-compare

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The differential suites (stream/checkpoint/provisional equivalence) all
# live in internal/core and together exceed go test's default 10m package
# timeout under the race detector on small hosts; the explicit timeout is
# headroom, not a hang allowance.
race:
	$(GO) test -race -timeout 40m ./...

bench:
	$(GO) test -bench=. -benchmem

# One iteration of every stage and micro benchmark: catches benchmarks that
# no longer compile or crash without paying for a full timed run.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkStage|BenchmarkMicro)' -benchtime=1x .

# Smoke-test the stage pipeline against the committed baseline snapshot. The
# tolerance is deliberately generous: this catches order-of-magnitude
# regressions and schema/stage drift on shared CI machines, not single-digit
# noise (use sdbench -compare with a tighter -tolerance by hand for that).
bench-compare:
	@tmp=$$(mktemp /tmp/sdbench.XXXXXX.json); \
	$(GO) run ./cmd/sdbench -dataset A -json $$tmp && \
	$(GO) run ./cmd/sdbench -compare BENCH_PR10.json -tolerance 150 -alloc-tolerance 25 $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

# The streaming-equivalence smoke: the incremental engine must reproduce the
# batch oracle's events on both vendor corpora at serial and parallel
# settings, and the router-sharded engine must reproduce the serial engine
# byte for byte at every worker count (the full differential suite runs
# under `make race`).
stream-equiv:
	$(GO) test -run 'TestStreamingMatchesBatch|TestShardedMatchesSerial' -count=1 ./internal/core

# The kill/restore differential under the race detector: a run snapshotted,
# torn down, and restored at 20 random points (both corpora, serial and
# sharded) must emit byte-for-byte what the uninterrupted run emits — each
# event exactly once.
checkpoint-equiv:
	$(GO) test -race -run 'TestCheckpointRestoreEquivalence|TestCheckpointRestoreAcrossWorkerCounts|TestCheckpointPoolIndependence' -count=1 ./internal/core

# The two-tier emission differentials: with the provisional tier on, the
# final event stream must stay byte-identical to the provisional-off run
# (both corpora, serial and sharded), and a run killed/restored at 20
# random points must deliver each (EventID, Revision) exactly once —
# byte-for-byte the uninterrupted run's update transcript. Run without
# -race here as the fast standalone smoke; the same tests run under the
# race detector in `make race` (both are in `make check`).
provisional-equiv:
	$(GO) test -run 'TestProvisionalFinalEquivalence|TestProvisionalCheckpointExactlyOnce|TestProvisionalSupersedeStorm' -count=1 ./internal/core

# The cluster differential under the race detector: the engine distributed
# over TCP-loopback shard servers at 1/2/4 shards — including 10 random
# shard-kill/reconnect points and checkpoint/restore across engine shapes —
# must emit byte-for-byte what the serial in-process engine emits on both
# corpora, final events and provisional update stream alike, with the wire
# metrics reconciling exactly (batches acked == punctuations applied per
# shard, reconnect counter == kills x shards).
cluster-equiv:
	$(GO) test -race -run 'TestClusterMatchesSerial|TestClusterStreamerMatchesSerial|TestClusterKillReconnect|TestClusterCheckpointRestore' -count=1 -timeout 20m ./internal/core

# The steady-state allocation gate: testing.AllocsPerRun over the vendor
# corpus (serial and sharded) and the storm corpus must stay at or under
# one heap allocation per pushed message, net of open-state growth (see
# internal/core/alloc_guard_test.go).
alloc-guard:
	$(GO) test -run 'TestStreamAllocs' -count=1 ./internal/core

# The repository benchmark is its own module (perfbench/go.mod), so `go vet
# ./...` and `go test ./...` above never compile it: vet and self-test it
# here, so a change to an entry point it calls (stream.NewSharded,
# stream.NewCluster, core.Streamer, ...) fails check instead of run.py.
perfbench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
