#!/bin/sh
# Tier-1 verification: gofmt gate, build, vet (findings fail the run), the
# full test suite under the race detector — which includes the
# fault-injection and rollback tests of internal/gpu and internal/flow —
# the million-node partition smoke, the partition seam-conflict stress, and
# short fuzz smokes of the AIGER parser and the ISOP. Run from anywhere;
# `make check` is an alias.
set -eu
cd "$(dirname "$0")/.."
# gofmt gate: fail on any unformatted file.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
set -x
go build ./...
go vet ./...
go test -race ./...
# Fault-injection / recovery paths, explicitly, under -race.
go test -race -run 'Fault|Guard|TableFull' ./internal/gpu/ ./internal/flow/ ./internal/hashtable/
# Resynthesis cache: concurrent mixed NPN/program traffic on one cache and
# the 8-job shared-cache batch stress, explicitly, under -race; with them the
# rewrite kernels' shared state: batched NPN counters stay exact at every
# worker count and through a shared-cache batch, and 8 goroutines racing a
# fresh library all get the one published entry per class.
go test -race -run 'TestConcurrentMixedTraffic|TestNpn4UncountedBatchedCounters|TestSharedCacheBatchStress|TestCachedRunsMatchUncached|TestNpnCountersExact|TestNpnCountsMatchEvaluatedCuts|TestLibraryPublishOnce' ./internal/rcache/ ./internal/rewrite/ .
# Batch scheduler: shared-budget stress and cancellation, explicitly, under
# -race (concurrent jobs over a tiny pool must respect the worker budget and
# stop promptly on cancel, with no goroutine leaks).
go test -race -run 'Pool|Engine|Lease|RunBatch|Cancel' ./internal/sched/ ./internal/gpu/ .
# Partition-parallel optimization: the million-node deep/narrow smoke (cone
# partitioning of an AIG the kernel-level parallelism cannot touch) and the
# seam-conflict stress — 8 partitions racing over a 2-worker pool in parallel
# mode — explicitly, under -race.
go test -timeout 20m -run 'TestPartitionMillionNodeSmoke' .
go test -race -run 'TestPartitionStressRace|TestResolveRollsBack|TestPartitionedBatchJob' ./internal/partition/ .
# Multicore scaling smoke: a reduced deep/narrow run at 1 vs 4 workers must
# get faster with workers (skips itself on <4-CPU runners, where wall time
# cannot improve; the BenchmarkPartitionMillionW* rows carry the full story).
go test -timeout 10m -run 'TestPartitionScalingSmoke' .
# Pooled strash determinism (reuse-after-Put must be bit-identical), the
# parallel seam stitch (structural identity with the sequential stitch,
# worker-count independence), and the concurrent min-insert primitive it
# rides on, explicitly, under -race.
go test -race -run 'TestStrashTable|TestStrashPoolDeterminism|TestRebuildStrashSizing' ./internal/aig/
go test -race -run 'TestParallelStitch|TestConcurrentInsertMin|TestInsertMinFull' ./internal/partition/ ./internal/hashtable/
# Supervision chaos gate: a randomized (but seeded and printed, hence
# reproducible) fault schedule over an 8-job batch under -race — kernel
# panics, typed hashtable-full failures, silent corruptions, and one poison
# job the watchdog must preempt and quarantine. Surviving outputs must stay
# CEC-equivalent to a fault-free run and the journal must replay the full
# supervision history. Override the seed with CHAOS_SEED=n to reproduce.
CHAOS_SEED="${CHAOS_SEED:-$(date +%s)}"
echo "chaos gate seed: $CHAOS_SEED"
go test -race -count=1 -run 'TestChaosBatchSupervision' -chaos-seed="$CHAOS_SEED" .
# Supervision/journal concurrency, explicitly, under -race.
go test -race -count=1 -run 'TestConcurrentIncidentAppendStress|TestConcurrentAppend' ./internal/sched/ ./internal/journal/
# Durable queue: WAL replay reconstruction, torn-record tolerance, the
# concurrent lease/resolve stress with exactly-once cross-checks, the
# weighted-fair leasing properties, and the compaction suite (shrink +
# equivalent replay, crash-during-compaction stale-temp recovery, live
# threshold), under -race.
go test -race -count=1 ./internal/queue/
go test -race -count=1 -run 'TestWeightedFairLeasing|TestIdleClientDoesNotBankCredit|TestCompactShrinksAndReplaysEquivalently|TestCrashDuringCompactionIgnoresStaleTemp' ./internal/queue/
# Daemon v1 surface: the event bus (resume, overflow), the content-addressed
# result store (dedup, GC, digest validation), and the typed Go client (SSE
# parsing, error envelope, poll fallback), under -race.
go test -race -count=1 ./internal/bus/ ./internal/store/ ./client/
# v1 API e2e: SSE streaming with Last-Event-ID exact-suffix resume, result
# retrieval with digest checks, list filters, error envelope, deprecation
# headers on the flat aliases.
go test -race -count=1 -run 'TestSSEResume|TestResultEndpoint|TestListFilters|TestErrorEnvelope|TestV1RoutesAndDeprecation' ./cmd/aigred/
# Daemon smoke gate: the aigred e2e pair — crash the daemon mid-batch with
# jobs leased (hard os.Exit, no checkpoint), restart against the same queue
# file, and assert every job reaches exactly one terminal state with no
# re-execution of completed work, the restart-forced compaction shrinks the
# WAL, every completed job's result is still retrievable from the store,
# and the SSE stream resumes across a disconnect with no gap; then SIGTERM
# a daemon with a job in flight and assert the drain finishes it, refuses
# new submissions with the typed draining error, leaves the backlog durably
# pending, and exits 0.
go test -race -count=1 -run 'TestDaemonCrashRecovery|TestDaemonDrainSmoke' ./cmd/aigred/
# Fuzz smoke: the AIGER parser must never panic on arbitrary input, and the
# width-halving ISOP must match the full-width oracle cube for cube.
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s ./internal/aiger/
go test -run='^$' -fuzz=FuzzISOP -fuzztime=10s ./internal/truth/
