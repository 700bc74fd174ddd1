GO ?= go

.PHONY: all build fmt vet doclint lint test race bench bench-smoke chaos chaos-smoke fuzz-smoke ci

all: build vet doclint lint test

build:
	$(GO) build ./...

# Formatting gate: every Go file in the tree is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Documentation lint: every internal package carries a package doc
# comment, the public surfaces of store, tsdb, cache, collect, core and
# transport document every exported symbol, the registered dcdb_* series
# match the docs/OBSERVABILITY.md catalog, and the flags of collectagent
# and dcdbpusher match their docs/OPERATIONS.md tables (see cmd/doclint).
doclint:
	$(GO) run ./cmd/doclint

# Invariant lint: the repo-specific analyzer suite (lockorder,
# poolescape, batchinsert) that mechanically enforces the concurrency
# and pooling contracts cataloged in docs/ANALYSIS.md.
# bench/ is left out: BENCHMARK.json freezes it, so its one finding (the
# cold-scan preload inserts one batch per call on purpose, 123 k WAL
# records for recovery to replay) could not carry its //lint:ignore.
lint:
	$(GO) run ./cmd/invlint $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/bench$$')

test:
	$(GO) test ./...

# Race-enabled run over every internal package; the hottest suspects are
# the operator manager and its computation bound, the sharded sensor
# caches, the bound-handle/scratch-arena tick path and the tsdb
# ingest/flush paths. The second leg repeats core's bound and manager
# tests five times: their interleavings (a bound swapped mid-tick, a
# Close mid-tick) differ run to run. The third repeats the store's WAL
# tests five times for the same reason: which writer runs the shared
# fsync, and who writes while it runs, differ run to run; with them go
# the head model test (a fresh seed each run) and the cross-shard WAL
# replay test, whose inserters interleave differently each run. The fourth
# runs the root-package benchmark suite one iteration under the race
# detector: the paired contention workloads exercise cross-goroutine
# interleavings the unit tests cannot reach.
race:
	$(GO) test -race -count=1 ./internal/...
	$(GO) test -race -count=5 -run 'Scheduler|Tick|Threads|OnDemand|Manager' ./internal/core
	$(GO) test -race -count=5 -run 'GroupCommit|ConcurrentWriters|OrderedShutdown|FsyncStall|DiskFull|RetiredWAL|WALDegrade|WALFailure|HeadModel|ReplayAcrossShards' ./internal/tsdb
	$(GO) test -race -run '^$$' -bench . -benchtime 1x .

# Short benchmark run over the micro-benches no `go run ./bench` rung
# covers: the tick-path contention workloads, a tick into a real store,
# the cache view modes, concurrent ingest through the group-commit WAL
# and indexed wildcard expansion, then the chunk codec's encode and
# decode on a decimal walk and on one that takes the XOR path. Numbers
# here are for working with; the gated record is `go run ./bench`
# (BENCHMARK.json, bench/README.md). Full suite: go test -bench=. -benchmem .
bench:
	$(GO) test -run '^$$' -bench 'TickAllContention|TickIntoStore|QueryContention|CacheView|IngestConcurrent|WildcardExpand' -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench 'ChunkEncode|ChunkDecode' -benchtime 200x ./internal/tsdb/

# One-iteration smoke over the ENTIRE benchmark suite: every benchmark
# must still compile and execute, so the paired workloads cannot
# bit-rot between the fuller runs. Wired into `make ci`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Seeded chaos smoke (~35s): the fault-injected end-to-end scenario,
# the integration-tier recovery case, the ack-means-stored check (a
# stalled WAL write must hold back the PubAck of every batch of the
# burst), the publish client's model test and the broker's scripted-peer
# burst tests (internal/transport), the broker's dedup tests and the
# reconnect dedup case (internal/transport, internal/integration), the
# topic-handle tests (internal/transport, internal/collect), and the
# store's burst and segment-writer fault tests, its tier model test, the
# failed-flush reader-stall regression, the no-I/O-under-the-ingest-lock
# check, the retired-WAL sync failure and the index-across-head-drops
# race (internal/tsdb), all under the race detector. A fixed
# WINTERMUTE_TEST_SEED keeps CI deterministic; drop the variable to
# explore fresh seeds locally (failures log their replay incantation).
# See docs/TESTING.md for the harness design and verdict format.
chaos-smoke:
	WINTERMUTE_TEST_SEED=42 $(GO) test -race -count=1 \
		-run 'TestScenarioSmoke|TestChaosSmokeRecovery|TestAckImpliesStored|TestClientModel|TestBurst|TestOversizeFrame|TestKilledConnection|TestInsertBatchesMatches|TestTornBurst|TestSegmentWriterFailsClean|TestTierModel|TestFailedFlushDoesNotStallReaders|TestFlushHoldsIngestForNoIO|TestRetiredWALSyncFailure|TestHandle|TestDedup|TestPublisherBeyondInternCap|TestSecondLocalHandler|TestTopicListedAcrossHeadDrops' \
		./internal/chaos/ ./internal/integration/ ./internal/transport/ ./internal/collect/ ./internal/tsdb/

# Fuzz smoke (~40s): every native fuzz target for a few seconds from its
# fixed seed corpus (f.Add plus testdata/fuzz; Go runs one target per
# invocation). Not a search — that is `-fuzztime 5m` by hand, see
# docs/TESTING.md — but enough that a decoder change which breaks a
# property on near-seed inputs fails CI.
fuzz-smoke:
	@for t in FuzzDecodePublish FuzzReadFrame FuzzDiskSpoolScan; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 3s ./internal/transport/ || exit 1; done
	@for t in FuzzReplayWAL FuzzChunkIter FuzzOpenSegment; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 3s ./internal/tsdb/ || exit 1; done

# Full chaos run: 1000 simulated pushers, 30s of the eight scheduled
# fault classes (killed connections, stalled fsyncs, failed fsyncs, torn
# WAL writes, failed segment writes, disk-full, OOO floods, clock skew)
# with the at-least-once spool on, so the verdict requires
# zero lost readings, period. The JSON verdict goes to stdout; the exit
# status is non-zero on a failed verdict. Pre-merge gate for
# storage/transport/ingest changes.
chaos:
	$(GO) run ./cmd/chaosrunner -seed 42

ci: build fmt vet doclint lint test race bench-smoke bench chaos-smoke fuzz-smoke
