// Package partition implements partition-parallel optimization of large AIGs.
// The network is split into size-bounded partitions — output-cone clusters or
// level-window slices, every node owned by exactly one — each partition is
// optimized by the caller's callback, largest first and at most the pool's
// width at once, and the optimized partitions are stitched back together with
// conflict breaking at the seams: the cones are concatenated, the duplicates
// independent partition runs created are merged by the de-duplication pass
// under its fixed winner priority (stitchParallel), and the stitched result
// must pass the structural invariant check plus the sampling-equivalence gate
// of the guarded flow runner. A partition that refutes is rolled back to its
// pre-optimization cone.
//
// The package knows no engine, journal or supervision policy. Its one caller
// is a partitioned job's attempt in internal/sched, whose callback runs the
// job's script on a lease of the engine's pool: the attempt's deadline,
// watchdog heartbeat (carried by ctx) and retries cover every partition, and
// the partitions' incidents come back in the job's own result.
//
// This is the layer that turns the batch engine's many-small-jobs
// parallelism into one-huge-job parallelism ("Parallel AIG Refactoring via
// Conflict Breaking" supplies the recipe): the script commands themselves
// parallelize only within a level, so a deep, narrow million-node AIG
// starves kernel-level parallelism — but its output cones are embarrassingly
// parallel.
package partition

import (
	"cmp"
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// Mode selects how the network is split (the public aigre.PartitionMode is
// this type). The zero value Off runs the script whole-network.
type Mode int

const (
	// Off disables partitioning (the default); Run rejects it.
	Off Mode = iota
	// Cones clusters primary outputs greedily: each partition is what
	// consecutive PO fanin cones add to the nodes earlier partitions own. A
	// node belongs to the first partition whose cone reaches it; later
	// partitions read it as an input, so a partition is a union of whole
	// fanout-free cones and no logic is optimized twice. Those inputs reach
	// the partition's job as level-0 PIs, so balancing there does not see
	// their real arrival times: depth can end a few levels above the
	// whole-network run's (up to 3 levels, 7.7 %, over the scale-2 suite;
	// never above the input's). Best for wide many-output designs and for
	// deep, narrow designs that starve kernel-level parallelism.
	Cones
	// Levels slices the network into contiguous level windows: each
	// partition holds every AND node whose level falls in its range, its
	// inputs are PIs and lower-window nodes, and it exports the nodes that
	// higher windows or POs read. Works on single-output designs where cone
	// clustering cannot split.
	Levels
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Cones:
		return "cones"
	case Levels:
		return "levels"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Split says how to partition: the strategy and its size bound (the public
// aigre.PartitionOptions is this type).
type Split struct {
	// Mode selects the partitioning strategy; Off (the zero value) runs the
	// script whole-network.
	Mode Mode
	// TargetSize is the partition size bound in AND nodes (0 = 100000). A
	// single output cone larger than the bound still becomes one partition.
	TargetSize int
}

// Options configures a partition-parallel run: the split, the pool and the
// flow settings the gates follow.
type Options struct {
	Split
	// Pool is the engine's worker pool (required, not closed by Run):
	// extraction and the stitch launch on a lease of it, and its width
	// bounds how many partitions are optimized at once, so a partitioned
	// job cannot oversubscribe the host.
	Pool *gpu.Pool
	// Flow is the partitions' execution config: Verify selects the gates'
	// full CEC, and Flow.Cache (nil: the process-wide default) is the cache
	// whose traffic Result.CacheStats reports.
	Flow flow.Config
}

// gateSeed is the fixed base of every gate's sampling seed.
const gateSeed = 1

// maxConflictRounds bounds the stitch/rollback loop: each round that the
// merged network fails the seam equivalence gate rolls back at least one
// refuted partition and re-stitches; past the bound every remaining
// optimized partition is rolled back at once.
const maxConflictRounds = 2

func (o Options) normalized() Options {
	if o.TargetSize <= 0 {
		o.TargetSize = 100_000
	}
	if o.TargetSize < 16 {
		o.TargetSize = 16
	}
	return o
}

// Stat reports one partition of a run (the public aigre.PartitionStat is
// this type).
type Stat struct {
	Index int `json:"index"`
	// POs is the number of primary outputs whose root the partition was
	// first to claim (cones mode; a PO on a root an earlier PO claimed reads
	// that partition's export and is not counted); LevelLo/LevelHi is the
	// level range (levels mode).
	POs     int `json:"pos,omitempty"`
	LevelLo int `json:"level_lo,omitempty"`
	LevelHi int `json:"level_hi,omitempty"`
	// NodesIn and NodesOut count the partition's AND nodes before
	// optimization and as finally stitched (after any rollback).
	NodesIn  int `json:"nodes_in"`
	NodesOut int `json:"nodes_out"`
	// ConflictsBroken counts seam conflicts broken in this partition's
	// nodes in the final stitch round: nodes merged into a duplicate of
	// lower (level, id) rank, or simplified away at the boundary.
	ConflictsBroken int `json:"conflicts_broken"`
	// RolledBack reports that the partition's optimized cone was discarded
	// (optimization failure, local gate refutation, or seam-round refutation) and the
	// pre-optimization cone stitched instead; Note carries the reason.
	RolledBack bool   `json:"rolled_back,omitempty"`
	Note       string `json:"note,omitempty"`
	// QueuedNS is how long the partition waited for a free runner after
	// optimization began, WallNS the host time of its optimization; Incidents
	// counts the contained failures inside it.
	QueuedNS  time.Duration `json:"queued_ns"`
	WallNS    time.Duration `json:"wall_ns"`
	Incidents int           `json:"incidents,omitempty"`
}

// Report summarizes a partition-parallel run (the public
// aigre.PartitionReport is this type).
type Report struct {
	// Mode is the partitioning strategy that ran ("cones" or "levels").
	Mode string `json:"mode"`
	// Parts holds one row per partition.
	Parts []Stat `json:"partitions"`
	// NodesIn/NodesOut are whole-network AND counts before and after.
	NodesIn  int `json:"nodes_in"`
	NodesOut int `json:"nodes_out"`
	// SharedNodes counts the nodes more than one partition holds. Both
	// builders give every node one owner (TestEveryNodeOwnedOnce), so Run
	// never sets it; the field stays for the report schema.
	SharedNodes int `json:"shared_nodes"`
	// ConflictsFound counts seam conflicts detected across every stitch
	// round; ConflictsBroken those resolved in the final accepted stitch.
	ConflictsFound  int `json:"conflicts_found"`
	ConflictsBroken int `json:"conflicts_broken"`
	// Rollbacks counts partitions whose optimized cone was discarded.
	Rollbacks int `json:"rollbacks"`
	// StitchRounds is the number of stitch attempts (1 = no seam refutation).
	StitchRounds int `json:"stitch_rounds"`
}

// Result is the outcome of a partition-parallel run: the run record — AIG
// is the stitched optimized network (the original input when the run was
// cancelled), Incidents aggregates the contained failures of every partition
// and the seam repairs, CacheStats is the shared cache's traffic — plus the
// partition report.
type Result struct {
	flow.Result
	Report
}

// Run optimizes a partition-parallel: optimize runs once per partition, on
// the partition's extracted network, under ctx with the profiler label
// partition_phase=optimize. The input is never mutated. The returned network
// is functionally equivalent to the input as screened by the same gates the
// guarded flow runner uses (sampling by default, full CEC when Flow.Verify is
// set); any partition whose optimization fails or fails its gate is stitched
// from its pre-optimization cone instead.
func Run(ctx context.Context, a *aig.AIG, opts Options, optimize func(ctx context.Context, part *aig.AIG) (flow.Result, error)) (res Result, err error) {
	if opts.Mode != Cones && opts.Mode != Levels {
		return Result{}, fmt.Errorf("partition: unknown mode %v", opts.Mode)
	}
	opts = opts.normalized()
	start := time.Now()
	cacheBefore := opts.Flow.Cache.Snapshot()

	// Partitioning assumes canonical id order; in-place-edited inputs are
	// compacted first (POs and functions preserved), invalid ones refused.
	base := a
	if !a.Canonical() {
		if base, _, err = a.CompactSafe(); err != nil {
			return Result{}, fmt.Errorf("%w: %v", flow.ErrInvalidInput, err)
		}
	}
	res = Result{Report: Report{Mode: opts.Mode.String(), NodesIn: base.NumAnds()}}
	defer func() {
		res.Wall = time.Since(start)
		res.CacheStats = opts.Flow.Cache.Snapshot().Sub(cacheBefore)
		if err != nil {
			res.AIG = a // a failed or cancelled run hands back the input
		}
	}()

	// Profiler labels mark the phases: a CPU profile of a partitioned run
	// separates clustering, extraction, optimization and seam stitching.
	build := buildWindows
	if opts.Mode == Cones {
		build = buildCones
	}
	// Extraction and the stitch launch on a lease of the pool bound to ctx;
	// its accounting stays out of the run's modeled time and profile.
	d := opts.Pool.Lease(0)
	d.Bind(ctx)
	var parts []*part
	var pres []*aig.AIG
	pprof.Do(ctx, pprof.Labels("partition_phase", "cluster"), func(context.Context) { parts = build(base, opts.TargetSize) })
	pprof.Do(ctx, pprof.Labels("partition_phase", "extract"), func(context.Context) {
		err = launching(func() { pres = extractAll(d, base, parts) })
	})
	if err = cmp.Or(err, alive(ctx)); err != nil {
		return res, cancelled(err)
	}
	// At most the pool's width of runners take the partitions largest first
	// (longest processing time first: no runner starts a big one late).
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(len(parts[y].members), len(parts[x].members)) })
	res.Parts = make([]Stat, len(parts))
	outs := make([]flow.Result, len(parts))
	errs := make([]error, len(parts))
	pprof.Do(ctx, pprof.Labels("partition_phase", "optimize"), func(ctx context.Context) {
		began := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(opts.Pool.Workers(), len(order)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
					i, t := order[k], time.Now()
					outs[i], errs[i] = optimize(ctx, pres[i])
					res.Parts[i].QueuedNS, res.Parts[i].WallNS = t.Sub(began), time.Since(t)
				}
			}()
		}
		wg.Wait()
	})

	chosen := make([]*aig.AIG, len(parts))
	for i, r := range outs {
		if err := alive(ctx); err != nil {
			return res, cancelled(err)
		}
		st := &res.Parts[i]
		st.Index = i
		st.POs = len(parts[i].poIdx)
		st.LevelLo, st.LevelHi = parts[i].levelLo, parts[i].levelHi
		st.NodesIn = pres[i].NumAnds()
		st.Incidents = len(r.Incidents)
		res.Incidents = append(res.Incidents, r.Incidents...)
		res.Modeled += r.Modeled
		if errs[i] != nil {
			// Defensive: flow.Run fails only on parse or cancellation, both
			// handled above — but a failed run must never corrupt the stitch.
			chosen[i] = pres[i]
			st.RolledBack = true
			st.Note = errs[i].Error()
			res.Rollbacks++
			continue
		}
		// Local gate: the partition alone must already be equivalent to its
		// pre-optimization cone before it is allowed near the seams.
		seed := gateSeed + int64(i)*7919 + 101
		if err := flow.EquivGate(pres[i], r.AIG, opts.Flow.Verify, flow.GateRounds, seed); err != nil {
			chosen[i] = pres[i]
			st.RolledBack = true
			st.Note = err.Error()
			res.Rollbacks++
			res.Incidents = append(res.Incidents,
				rollbackIncident(i, "equivalence", flow.ClassPermanent, err.Error()))
			continue
		}
		chosen[i] = r.AIG
	}

	pprof.Do(ctx, pprof.Labels("partition_phase", "stitch"), func(context.Context) {
		res.AIG, err = resolve(ctx, d, base, parts, pres, chosen, opts, &res)
	})
	if cerr := ctx.Err(); cerr != nil {
		return res, cancelled(cerr)
	}
	if err != nil {
		return res, err
	}
	for i := range res.Parts {
		res.Parts[i].NodesOut = chosen[i].NumAnds()
	}
	res.NodesOut = res.AIG.NumAnds()
	return res, nil
}

// rollbackIncident records a partition rollback as a classified incident, so
// the supervision journal and batch reports see seam repairs the same way
// they see contained kernel faults. Seam-gate rollbacks are transient — a
// fresh attempt re-partitions and usually lands clean ("Parallel AIG
// Refactoring via Conflict Breaking" treats conflicts as retryable) — while
// a local equivalence refutation is permanent.
func rollbackIncident(idx int, stage, class, detail string) flow.Incident {
	return flow.Incident{
		Index:   idx,
		Command: "partition",
		Stage:   stage,
		Action:  "rolled-back",
		Class:   class,
		Detail:  detail,
		Time:    time.Now(),
	}
}

// resolve runs the stitch / seam-gate / rollback loop. Each round stitches
// the currently chosen cones and gates the merged network against the base
// with the guarded runner's gate (aig.Check plus sampling equivalence, or
// full CEC under verify). On refutation it hunts the culprit with a deeper
// per-partition gate under a fresh seed, rolls it back to its
// pre-optimization cone, and re-stitches; past maxConflictRounds (or when no
// culprit is found) every remaining optimized partition is rolled back at
// once, which makes the loop terminate: a stitch of nothing but
// pre-optimization cones reproduces the base network function exactly. A
// cancelled ctx ends the loop at the next launch or liveness point.
func resolve(ctx context.Context, d *gpu.Device, base *aig.AIG, parts []*part, pres, chosen []*aig.AIG, opts Options, res *Result) (*aig.AIG, error) {
	verify, rounds := opts.Flow.Verify, flow.GateRounds
	for round := 1; ; round++ {
		merged, conflicts, err := stitchParallel(d, base, parts, chosen)
		if err != nil {
			return nil, err
		}
		if err := alive(ctx); err != nil {
			return nil, err
		}
		res.StitchRounds = round
		total := 0
		for _, c := range conflicts {
			total += c
		}
		res.ConflictsFound += total
		gerr := flow.EquivGate(base, merged, verify, rounds, gateSeed+int64(round)*1009)
		if gerr == nil {
			res.ConflictsBroken = total
			for i := range parts {
				res.Parts[i].ConflictsBroken = conflicts[i]
			}
			return merged, nil
		}
		allPre := true
		for i := range parts {
			if chosen[i] != pres[i] {
				allPre = false
				break
			}
		}
		if allPre {
			// Even the all-checkpoint stitch refuted: the failure is in the
			// stitcher or the base network itself, not in any partition.
			return nil, fmt.Errorf("partition: stitched checkpoint network refuted: %w", gerr)
		}
		rolled := false
		if round <= maxConflictRounds {
			for i := range parts {
				if chosen[i] == pres[i] {
					continue
				}
				if err := alive(ctx); err != nil {
					return nil, err
				}
				seed := gateSeed + int64(round)*6151 + int64(i)*7919
				if flow.EquivGate(pres[i], chosen[i], verify, 4*rounds, seed) != nil {
					chosen[i] = pres[i]
					res.Parts[i].RolledBack = true
					res.Parts[i].Note = "refuted during seam conflict round"
					res.Rollbacks++
					res.Incidents = append(res.Incidents, rollbackIncident(i,
						"seam-gate", flow.ClassTransient, "refuted during seam conflict round"))
					rolled = true
					break
				}
			}
		}
		if !rolled {
			// No individual culprit (the failure emerges only at the seams)
			// or the round budget is spent: drop every optimized cone.
			for i := range parts {
				if chosen[i] == pres[i] {
					continue
				}
				chosen[i] = pres[i]
				res.Parts[i].RolledBack = true
				res.Parts[i].Note = "rolled back with all partitions after seam refutation"
				res.Rollbacks++
				res.Incidents = append(res.Incidents, rollbackIncident(i,
					"seam-gate", flow.ClassTransient, "rolled back with all partitions after seam refutation"))
			}
		}
	}
}

// cancelled wraps the context error that ended a run.
func cancelled(err error) error { return fmt.Errorf("partition: cancelled: %w", err) }

// alive is the orchestration's liveness point — between phases, per partition
// gate and per stitch round: it beats the heartbeat ctx carries (these
// points launch no kernel) and returns ctx.Err().
func alive(ctx context.Context) error {
	gpu.Beat(ctx)
	return ctx.Err()
}
