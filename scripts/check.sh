#!/bin/sh
# Tier-1 verification: gofmt gate, structural gate, build, vet (findings fail
# the run; the nested benchmark module too, with its smoke test), the full suite
# under the race detector, and then only the rows that add a flag to it: the
# non-race million-node and scaling smokes, the seeded chaos gate, uncached
# (-count=1) runs of the I/O-bound packages, the Apply short-cut oracle, the
# byte budgets and the launch-loop smoke, and short fuzz
# smokes of the AIGER parser, the ISOP, the simulator, the topological walk,
# Rehash and the script parser.
# Run from anywhere; `make check` is an alias.
set -eu
cd "$(dirname "$0")/.."
# gofmt gate: fail on any unformatted file.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# Structural gate: flow.execute is the only caller of a Command's engines, and
# core.EditInPlace the only in-place edit scaffold of the three engines.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=flow --exclude-dir=benchmark '\.(Par|Seq)\(' . ||
    grep -rnE --include='*.go' --exclude='*_test.go' 'EnableFanouts\(\)|ReleaseStrash\(\)' internal/rewrite internal/resub internal/refactor; then
    echo "check: a copy of the command executor or of the edit scaffold grew back (see above)" >&2
    exit 1
fi
# One host applier: rewriting, refactoring and resubstitution hand every
# in-place replacement to core.(*EvalScratch).Apply, so none of them builds a
# program or calls ReplaceNode itself or recovers a panicking cone walk, and
# the per-pass revalidators (ValidCut, coneContains, coneTruthSafe) must not
# grow back.
if grep -rnE --include='*.go' --exclude='*_test.go' 'ReplaceNode\(|BuildProgramAvoiding\(|recover\(\)' internal/rewrite internal/refactor internal/resub ||
    grep -rnE --include='*.go' '^func (\([^)]*\) )?(ValidCut|coneContains|coneTruthSafe)\(' .; then
    echo "check: a pass applies its own replacements or revalidates its own way again (see above); go through core.(*EvalScratch).Apply" >&2
    exit 1
fi
# One function runs a job, reached one way: flow.Run is called from
# sched.(*Engine).Do only (its attempt), and every public entry point, the
# single algorithms too, is a script on the engine: no RunCommand beside it and
# no private device (outside internal/gpu every device is a pool lease). A job
# reaches Do directly or from the batch loop (sched.(*Engine).Batch, a slice,
# not a queue: no heap, no Submit or Shutdown, no ticket type), partition.Run
# from one call site (a partitioned job's attempt in sched), and pass-scoped
# tables are pooled by hashtable.Acquire alone.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=flow --exclude-dir=sched --exclude-dir=benchmark 'flow\.Run(' . ||
    grep -rnE --include='*.go' '^func (\([^)]*\) )?RunCommand\(' . ||
    grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=gpu --exclude-dir=benchmark 'gpu\.New(' . ||
    grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '"container/heap"' internal/sched ||
    grep -nE --exclude='*_test.go' --exclude-dir=benchmark '^func \([^)]*\) (Submit|Shutdown)\(|^type (Job)?Ticket ' ./*.go internal/sched/*.go ||
    [ "$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'partition\.Run(' . | wc -l)" -gt 1 ] ||
    grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=hashtable --exclude-dir=benchmark '\.\(\*hashtable\.Table\)' .; then
    echo "check: a second route into the engine (a RunCommand or a private gpu.New device), an admission queue, a second partition.Run call site or a second table pool grew back" >&2
    exit 1
fi
# The script is the whole program: the command table's ParPasses constant
# decides how many device passes a command runs, so internal/flow compares no
# command list against a named script (resyn2Cmds, rwzPasses, slices.Equal),
# and no option repeats or rewrites a command (a ZeroGain, Passes, RfPasses or
# MaxCut field in aigre.go or internal/flow/flow.go).
flow_go=$(find internal/flow -name '*.go' ! -name '*_test.go')
if grep -nwE 'resyn2Cmds|rwzPasses' $flow_go || grep -nF 'slices.Equal(' $flow_go ||
    grep -nE '^[[:space:]]+(ZeroGain|Passes|RfPasses|MaxCut)[[:space:]]+[^:=[:space:]]' aigre.go internal/flow/flow.go; then
    echo "check: a rule keyed on the script's spelling, or an option that repeats or rewrites a command, grew back (see above); put it in the script or in the command table" >&2
    exit 1
fi
# A job is supervised once: a partitioned job's own attempt (deadline,
# watchdog, retries) covers its partitions, which internal/partition runs
# without a policy; a retry budget shared across the two layers must not grow
# back.
if grep -rnE --include='*.go' --exclude-dir=benchmark '\bRetryBudget\b' . ||
    grep -rnwE --include='*.go' --exclude='*_test.go' 'Policy' internal/partition; then
    echo "check: a RetryBudget type, or a Policy handed to the engine by internal/partition, grew back; supervise the partitioned job's attempt instead" >&2
    exit 1
fi
# A partitioned job is one job: internal/partition runs its partitions itself
# and imports neither the engine nor the journal, so a nested engine
# (sched.RunSupervised) cannot come back, and the heartbeat rides the attempt's
# context into Device.Bind instead of a per-device setter (SetHeartbeat).
if grep -nE '"aigre/internal/(sched|journal)"' $(find internal/partition -name '*.go' ! -name '*_test.go') ||
    grep -rnwE --include='*.go' --exclude='*_test.go' 'RunSupervised|SetHeartbeat' .; then
    echo "check: internal/partition imports sched or journal, or RunSupervised/SetHeartbeat grew back (see above); run partitions inside the job's attempt" >&2
    exit 1
fi
# One supervision event path: sched declares the event type, and emit (in
# internal/sched/event.go) stamps every event and is the one caller of the
# OnEvent sink; internal/journal is the generic JSONL log under it and the
# queue's write-ahead log, so it imports no aigre package and declares no
# event type and no stamping Append or Observe hook.
journal_go=$(find internal/journal -name '*.go' ! -name '*_test.go')
if grep -nE '"aigre/' $journal_go ||
    grep -nE '^type[[:space:]]+(Event|Entry)\b|^[[:space:]]+(Event|Entry)[[:space:]]+struct\b|^func \([^)]*\) (Append|Observe)\(' $journal_go ||
    grep -nE '\b[oO]nEvent\(' $(find internal/sched -name '*.go' ! -name '*_test.go' ! -name event.go); then
    echo "check: internal/journal imports an aigre package or declares an event type or Append/Observe, or the OnEvent sink is called outside internal/sched/event.go (see above); emit supervision events through sched.(*Engine).emit" >&2
    exit 1
fi
# One definition per report key: the job record (sched.Record) and the fleet
# metrics (sched.Metrics) are each declared once, and the aigred session, the
# -report rows and header, -profile-json and /v1/stats embed or alias them.
# client/ is the vendorable wire mirror and keeps its own copy.
for key in nodes_before peak_workers; do
    defs=$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=client --exclude-dir=benchmark "json:\"$key" . || true)
    if [ "$(echo "$defs" | grep -c .)" -ne 1 ]; then
        echo "check: json:\"$key\" must be declared in exactly one file, found in: $defs" >&2
        exit 1
    fi
done
# One way to regenerate a paper table: TestPaperClaims (paper_test.go) asserts
# and prints them all; a regenerator command or testing.B table rows must not
# grow back beside it.
if [ -e cmd/experiments ] || grep -rnE --include='*.go' --exclude-dir=benchmark '^func Benchmark(Table|Fig)' .; then
    echo "check: cmd/experiments or a BenchmarkTable/BenchmarkFig row grew back; extend TestPaperClaims instead" >&2
    exit 1
fi
# One cone builder, one part shape: every node has one owner because buildCones
# and buildWindows are the only builders; a per-cluster duplicating builder, its
# commit helper or a fourth Mode must not grow back.
builders=$(grep -hoE --exclude='*_test.go' '^func (build|commit)[A-Za-z]*' internal/partition/*.go | sort | tr '\n' ' ')
modes=$(awk '/Off Mode = iota/{on=1} on&&/^\)/{exit} on&&!/\/\//{printf "%s ", $1}' internal/partition/partition.go)
if [ "$builders" != "func buildCones func buildWindows " ] || [ "$modes" != "Off Cones Levels " ]; then
    echo "check: internal/partition has builders \"$builders\" and modes \"$modes\": want buildCones, buildWindows and Off/Cones/Levels only" >&2
    exit 1
fi
# Kernel threads own their scratch by worker slot (gpu.Device.LaunchSlots): no
# kernel closure of the four engines borrows from a pool per thread.
if awk '
        FNR == 1 { inside = 0; depth = 0 }
        /\.(Launch|LaunchSlots|Launch1|TryLaunch)\(/ && !inside { inside = 1; depth = 0 }
        inside {
            if ($0 ~ /[Pp]ool\.(Get|Put)\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0) inside = 0
        }
        END { exit !bad }' $(find internal/rewrite internal/refactor internal/resub internal/balance -name '*.go' ! -name '*_test.go'); then
    echo "check: a kernel closure takes scratch from a pool per thread (see above); index per-slot scratch by the LaunchSlots slot instead" >&2
    exit 1
fi
# One launch path: every gpu.Device is a lease of a gpu.Pool, and
# gpu.Pool.Execute is the only place a kernel launch reaches host goroutines,
# so no other non-test file of internal/gpu starts one, and the Executor hook
# and NewLeased constructor of the old two-way launch must not grow back.
if grep -nE '^[[:space:]]*go[[:space:]]+[^[:space:]]' $(find internal/gpu -name '*.go' ! -name '*_test.go' ! -name pool.go) ||
    grep -rnE --include='*.go' '^(type|func|var|const)[[:space:]]+(Executor|NewLeased)\b' internal/gpu; then
    echo "check: a go statement outside internal/gpu/pool.go, or an Executor/NewLeased declaration, grew back in internal/gpu; launch through gpu.Pool.Execute" >&2
    exit 1
fi
# One merge kernel: the partition stitch is concatenation plus the dedup pass
# (dedup.Merge), and extraction and the stitch run as launches on a lease of
# the job's pool, so gpu.(*Device).launchParallel is the one non-test caller
# of gpu.Pool.Execute; internal/partition hashes nothing itself, and its
# chunked host fan-out and levelBatch liveness cadence must not grow back.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=gpu --exclude-dir=benchmark '\.Execute(' . ||
    grep -rnE --include='*.go' --exclude='*_test.go' '^[^/]*\bhashtable\.' internal/partition ||
    grep -rnE --include='*.go' '^(func|const|var)[[:space:]]+(chunked|levelBatch)\b' internal/partition; then
    echo "check: a second launch path into gpu.Pool.Execute, or partition's own merge (a hash table, chunked, levelBatch), grew back (see above); stitch through dedup.Merge on a device lease" >&2
    exit 1
fi
# One walk in internal/aig: TopoOrder, Compact and CompactSafe, Check,
# NodeLevels and Simulate order and validate through the one traversal in
# topo.go, and (*aig.AIG).Canonical is the one canonical-order predicate. The
# second walks (TopoOrderChecked, checkAcyclic, CountReachable), the private
# id-order test (isTopoByID), partition's copy of it (canonicalOrder) and any
# other hand-written "fanin id below node id" test outside internal/aig must
# not grow back; nor may the refactoring cut limit become an option again.
if grep -nE '^func (\([^)]*\) )?(TopoOrderChecked|checkAcyclic|isTopoByID|CountReachable)\(' $(find internal/aig -name '*.go' ! -name '*_test.go') ||
    grep -rnE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?canonicalOrder\(' internal/partition ||
    grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=aig 'Fanin[01]\([^)]*\)\.Var\(\)\)* *>=' . ||
    grep -nE '^[[:space:]]+MaxCut[[:space:]]+[^:=[:space:]]' $(find internal/refactor -name '*.go' ! -name '*_test.go'); then
    echo "check: a second topological walk or canonical-order test, or refactor.Options.MaxCut, grew back (see above); call the walk through TopoOrder/CompactSafe/Check and use (*aig.AIG).Canonical" >&2
    exit 1
fi
# Division works on sorted cube slices: factor.divide merges sorted,
# deduplicated []truth.Cube sets, so no non-test file of internal/factor
# declares a map keyed by a cube (the per-call map sets it replaced
# allocated ~10 % of a sequential resyn2's bytes).
if grep -nF 'map[truth.Cube]' $(find internal/factor -name '*.go' ! -name '*_test.go'); then
    echo "check: internal/factor declares a map keyed by truth.Cube again (see above); divide on sorted cube slices" >&2
    exit 1
fi
# Engines hand back clean networks: rw, rwz and rs replace through the
# strash-aware in-place editor and the parallel replacement ends with the
# Section III-F pass (dedup.Merge), so the flow runs no cleanup stage after a
# command: non-test internal/flow declares no Cleanup field and no DedupWall or
# DedupModeled timing, and calls into dedup only from the dedup command's own
# table entry. A job's worker budget is Options.Workers alone: aigre.Batch
# declares no Workers field beside it.
if grep -nE '^[[:space:]]+Cleanup[[:space:]]+[^:=[:space:]]|\bDedup(Wall|Modeled)\b' $flow_go ||
    awk 'FNR == 1 { entry = 0 }
        /^[[:space:]]*\/\// { next }
        /"dedup":[[:space:]]*\{/ { entry = 1 }
        !entry && /(^|[^A-Za-z0-9_])dedup\.[A-Za-z_]+\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        entry && /\}\},?[[:space:]]*$/ { entry = 0 }
        END { exit !bad }' $flow_go ||
    awk '/^type Batch struct/ { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^[[:space:]]+Workers[[:space:]]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(find . -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
    echo "check: a cleanup stage after a command (a Cleanup field, DedupWall/DedupModeled, a dedup call outside the dedup command) or aigre.Batch.Workers grew back (see above); engines return clean networks and Options.Workers is the job's budget" >&2
    exit 1
fi
# Kernel panics are contained per chunk: a launch body runs launchChunk
# threads under one recover (parallelLaunch.runChunk), so non-test
# internal/gpu declares no per-thread recover wrapper (runThread), whose
# defer put 8-11 ns on every logical thread.
if grep -nE '^func runThread\(' $(find internal/gpu -name '*.go' ! -name '*_test.go'); then
    echo "check: a per-thread recover wrapper grew back in internal/gpu (see above); recover once per chunk in parallelLaunch.runChunk" >&2
    exit 1
fi
# One network form between commands: flow.Run makes its input Clean once and
# every engine keeps it, so the edit scaffold and the engines over it copy
# their input instead of rehashing it (non-test internal/core, rewrite,
# refactor and resub call no Rehash), and the parallel replacement compacts
# only inside its Section III-F pass (internal/core/replace.go calls no
# Compact).
if grep -rnE --include='*.go' --exclude='*_test.go' '\.Rehash\(\)' internal/core internal/rewrite internal/refactor internal/resub ||
    grep -nE '\.Compact\(\)' internal/core/replace.go; then
    echo "check: an engine rehashes its input, or the parallel replacement compacts before dedup.Merge, again (see above); flow.Run hands every command a Clean network" >&2
    exit 1
fi
# Hash tables are sized for their keys, as on the device: an insert that finds
# no empty slot is a sizing bug and panics, contained like any kernel panic, so
# no non-test Go names a full-table error (ErrTableFull), internal/hashtable
# neither counts, grows nor dumps a table (an atomic add, Len, Rehash, Dump),
# and the device keeps one ledger, its per-kernel profile: internal/gpu
# declares no Stats type beside it.
ht_go=$(find internal/hashtable -name '*.go' ! -name '*_test.go')
if grep -rnw --include='*.go' --exclude='*_test.go' 'ErrTableFull' . ||
    grep -nE '^func \(t \*Table\) (Rehash|Dump|Len)\(|atomic\.Add' $ht_go ||
    grep -nE '^type Stats struct' $(find internal/gpu -name '*.go' ! -name '*_test.go'); then
    echo "check: a full-table error, a table occupancy counter, Table.Rehash/Dump/Len or gpu.Stats grew back (see above); size the table for its keys and read device totals with gpu.TotalProfile" >&2
    exit 1
fi
# The resynthesis cache memoizes factoring only: NPN canonization is the pure,
# process-wide truth.Npn4 (no per-cache compartment, no hit/miss counters to
# batch: Npn4Uncounted, AddNpn, flushNpn), a nil *rcache.Cache means
# rcache.Default inside internal/rcache alone, and jobs share a cache by
# passing it in Options.Cache (no SharedCache beside it).
if grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'Npn4Uncounted|AddNpn|flushNpn|SharedCache' . ||
    grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=rcache 'rcache\.Default' .; then
    echo "check: an NPN cache compartment, a SharedCache option, or a cache default outside internal/rcache grew back (see above); call truth.Npn4, pass nil for the default cache, and share a cache through Options.Cache" >&2
    exit 1
fi
# One 4-cut enumerator: (*cut.Scratch).Cuts4 is what both rewriting engines
# run and cut.EnumCuts4 is a loop over it, so non-test Go outside internal/cut
# declares no enumerator of its own (enumLocalCuts, leafSet), and the
# bottom-up engine (enumNode, insertCut, mergeLeaves, expand16, dominates)
# must not grow back in internal/cut.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=cut '^(func|type)[[:space:]]+(\([^)]*\)[[:space:]]*)?(enumLocalCuts|leafSet)\b' . ||
    grep -nE '^func (\([^)]*\) )?(enumNode|insertCut|mergeLeaves|expand16|dominates)\(' $(find internal/cut -name '*.go' ! -name '*_test.go'); then
    echo "check: a second 4-cut enumerator grew back (see above); enumerate through (*cut.Scratch).Cuts4" >&2
    exit 1
fi
# One level-synchronous loop: gpu.(*Device).Waves buckets by level and calls
# each wave's step in order, so balancing's reconstruction and dedup's merge
# bucket nothing by level and loop over no levels themselves (no byLevel, no
# maxLevel, no `for lv`).
if grep -rnE --include='*.go' --exclude='*_test.go' '\b(byLevel|maxLevel)\b|\bfor lv\b' internal/balance internal/dedup; then
    echo "check: a hand-written level bucketing or level loop grew back in internal/balance or internal/dedup (see above); run the pass through gpu.(*Device).Waves" >&2
    exit 1
fi
# One sharing step in the parallel replacement: each cone writes its own
# slots and dedup.Merge finds every share, so internal/core builds no hash
# table, no ShareOrCreate is declared, and the replace/mark and
# replace/ht-init kernels do not come back.
if grep -nF '"aigre/internal/hashtable"' $(find internal/core -name '*.go' ! -name '*_test.go') ||
    grep -rnE --include='*.go' '^func (\([^)]*\) )?ShareOrCreate\(' . ||
    grep -rnE --include='*.go' --exclude='*_test.go' '"replace/(mark|ht-init)"' .; then
    echo "check: the parallel replacement shares new nodes its own way again (see above); leave every share to dedup.Merge" >&2
    exit 1
fi
set -x
go build ./...
go vet ./...
go test -race ./...
# The benchmark harness is a nested module that tier-1 never compiles, yet
# it pins ~70 identifiers of this module (sched.Job.Custom, queue.Session,
# aigre.PartitionStat.WallNS, ...): vet it, so a rename surfaces here and not
# as a failed benchmark run, and run its smoke test, so a deleted or changed
# function the probes call fails here too.
(cd benchmark && go vet ./... && go test ./...)
# Partition-parallel optimization: the million-node deep/narrow smoke (cone
# partitioning of an AIG the kernel-level parallelism cannot touch, and the
# pinned deep_part digest), the suite-wide cone-partition quality table and
# the paper's claims, without the race detector (the -race pass above skips
# them as too slow).
go test -timeout 20m -run 'TestPartitionMillionNodeSmoke|TestConePartitionQuality|TestPaperClaims' .
# Multicore scaling smoke: a reduced deep/narrow run at 1 vs 4 workers must
# get faster with workers (skips itself on <4-CPU runners, where wall time
# cannot improve; the benchmark's deep_part workload carries the full story).
go test -timeout 10m -run 'TestPartitionScalingSmoke' .
# Apply's self-rebuild short cut against full revalidation over three scripts
# and the Table I ablation on the suite (skipped under -race as too slow).
go test -count=1 -run 'TestApplySelfRebuildOracle' ./internal/core
# Supervision chaos gate: a randomized (but seeded and printed, hence
# reproducible) fault schedule over an 8-job batch under -race — kernel
# panics, typed device faults, silent corruptions, and one poison
# job the watchdog must preempt and quarantine. Surviving outputs must stay
# CEC-equivalent to a fault-free run and the journal must replay the full
# supervision history. Override the seed with CHAOS_SEED=n to reproduce.
CHAOS_SEED="${CHAOS_SEED:-$(date +%s)}"
echo "chaos gate seed: $CHAOS_SEED"
go test -race -count=1 -run 'TestChaosBatchSupervision' -chaos-seed="$CHAOS_SEED" .
# Uncached (-count=1) race runs of the packages whose tests touch the
# filesystem, sockets or child processes — durable queue (WAL replay, torn
# records, lease/resolve stress, fair leasing, compaction), supervision and
# journal concurrency, event bus, result store, Go client, and the aigred
# daemon (v1 API e2e with SSE resume; crash-recovery and drain smokes that
# re-exec the daemon) — so a cached pass never hides a flake.
go test -race -count=1 ./internal/sched/ ./internal/journal/ ./internal/queue/ ./internal/bus/ ./internal/store/ ./client/ ./cmd/aigred/
# Byte budgets of Rehash on a Clean network, Reconv cuts across a growing
# network, cube division, the gate, the AIGER streams, a daemon submission and
# the parallel rw, rwz and balancing passes: they skip themselves under -race,
# whose allocation padding makes them meaningless.
go test -count=1 -run 'AllocBudget' ./internal/aig ./internal/cut ./internal/factor ./internal/cec ./internal/aiger ./internal/rewrite ./internal/balance ./cmd/aigred
# Launch-loop smoke: one run of the per-logical-thread cost of a 1-op kernel.
go test -run '^$' -bench 'BenchmarkLaunchThreads' -benchtime=1x ./internal/gpu
# Fuzz smoke: the AIGER parser must never panic on arbitrary input, the
# width-halving ISOP must match the full-width oracle cube for cube, Simulate
# must match its reference on randomly edited networks, the topological walk
# must fail exactly on corrupted networks and otherwise return the reference
# order, Rehash must match its rebuild path (bytes, or the panic) on them, and
# the script parser must never panic and accept only table
# commands, in a canonical round trip.
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s ./internal/aiger/
go test -run='^$' -fuzz=FuzzScript -fuzztime=10s ./internal/flow/
go test -run='^$' -fuzz=FuzzISOP -fuzztime=10s ./internal/truth/
go test -run='^$' -fuzz=FuzzSimulate -fuzztime=10s ./internal/aig/
go test -run='^$' -fuzz=FuzzWalk -fuzztime=10s ./internal/aig/
go test -run='^$' -fuzz=FuzzRehash -fuzztime=10s ./internal/aig/
