// Package partition implements partition-parallel optimization of large
// AIGs. The network is split into size-bounded partitions — output-cone
// clusters or level-window slices — each partition is optimized as an
// independent prioritized job on the batch engine (internal/sched, largest
// partition first, sharing one resynthesis cache), and the optimized
// partitions are stitched back together with conflict breaking at the
// seams: duplicate structure created by independent jobs is merged level by
// level under a fixed winner priority (stitchParallel), and the stitched
// result must pass the structural invariant check plus the sampling-equivalence
// gate of the guarded flow runner. A partition that refutes is rolled back
// to its pre-optimization cone.
//
// This is the layer that turns the batch engine's many-small-jobs
// parallelism into one-huge-job parallelism ("Parallel AIG Refactoring via
// Conflict Breaking" supplies the recipe): the script commands themselves
// parallelize only within a level, so a deep, narrow million-node AIG
// starves kernel-level parallelism — but its output cones are embarrassingly
// parallel jobs.
package partition

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/journal"
	"aigre/internal/rcache"
	"aigre/internal/sched"
)

// Mode selects how the network is split (the public aigre.PartitionMode is
// this type). The zero value Off runs the script whole-network.
type Mode int

const (
	// Off disables partitioning (the default); Run rejects it.
	Off Mode = iota
	// Cones clusters primary outputs greedily: each partition is the union
	// of consecutive PO fanin cones, closed under fanin (its only inputs are
	// PIs). Logic shared between clusters is duplicated into each — the
	// stitcher merges the copies back. Best for wide
	// many-output designs and for deep, narrow designs that starve
	// kernel-level parallelism.
	Cones
	// Levels slices the network into contiguous level windows with no
	// duplication: each partition holds every AND node whose level falls in
	// its range, its inputs are PIs and lower-window nodes, and it exports
	// the nodes that higher windows or POs read. Works on single-output
	// designs where cone clustering cannot split.
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

// Split says how to partition: the strategy and its two bounds (the public
// aigre.PartitionOptions is this type).
type Split struct {
	// Mode selects the partitioning strategy; Off (the zero value) runs the
	// script whole-network.
	Mode Mode
	// TargetSize is the partition size bound in AND nodes (0 = 100000). A
	// single output cone larger than the bound still becomes one partition.
	TargetSize int
	// MaxConflictRounds bounds the stitch/rollback loop: each round that the
	// merged network fails the seam equivalence gate rolls back at least one
	// refuted partition and re-stitches; past the bound every remaining
	// optimized partition is rolled back at once (0 = 2).
	MaxConflictRounds int
}

// Options configures a partition-parallel run: the split plus how the
// partition jobs execute.
type Options struct {
	Split
	// Workers is the host worker budget: the pool size backing the
	// partition jobs and the bound on concurrently running jobs
	// (0 = GOMAXPROCS, or the shared pool's size when Pool is set).
	Workers int
	// Pool, when non-nil, is a shared worker pool to draw from instead of a
	// private one (the batch engine passes its own so a partitioned job
	// cannot oversubscribe the host). The pool is not closed by Run.
	Pool *sched.Pool
	// Flow is the per-partition execution config (mode, cut limits, gate
	// settings, cache). Flow.Device is ignored: parallel partitions lease
	// device capacity from the pool. Flow.Cache is shared across every
	// partition job (nil = rcache.Default).
	Flow flow.Config
	// Seed makes the gate sampling deterministic (0 = 1).
	Seed int64
	// Supervise is the supervision policy for the per-partition jobs
	// (deadline, retry budget, watchdog). A partitioned batch job passes a
	// policy whose Budget is shared with its own outer attempts, so
	// per-partition retries draw down the job's allowance rather than
	// multiplying it by the partition count.
	Supervise sched.Policy
	// Journal, when non-nil, receives the partition jobs' supervision
	// events (and this layer's seam-gate rollback incidents go to the
	// aggregated Result.Incidents regardless).
	Journal *journal.Journal
}

func (o Options) normalized() Options {
	if o.TargetSize <= 0 {
		o.TargetSize = 100_000
	}
	if o.TargetSize < 16 {
		o.TargetSize = 16
	}
	if o.MaxConflictRounds <= 0 {
		o.MaxConflictRounds = 2
	}
	if o.Workers <= 0 {
		if o.Pool != nil {
			o.Workers = o.Pool.Workers()
		} else {
			o.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Flow.Cache == nil {
		o.Flow.Cache = rcache.Default
	}
	o.Flow.Device = nil
	return o
}

// Stat reports one partition of a run (the public aigre.PartitionStat is
// this type).
type Stat struct {
	Index int `json:"index"`
	// POs is the number of primary outputs the partition drives (cones
	// mode); LevelLo/LevelHi is the level range (levels mode).
	POs     int `json:"pos,omitempty"`
	LevelLo int `json:"level_lo,omitempty"`
	LevelHi int `json:"level_hi,omitempty"`
	// NodesIn and NodesOut count the partition's AND nodes before
	// optimization and as finally stitched (after any rollback).
	NodesIn  int `json:"nodes_in"`
	NodesOut int `json:"nodes_out"`
	// ConflictsBroken counts seam conflicts broken while replaying this
	// partition into the merged network in the final stitch round: nodes
	// merged with duplicates another partition already created, or
	// simplified away at the boundary.
	ConflictsBroken int `json:"conflicts_broken"`
	// RolledBack reports that the partition's optimized cone was discarded
	// (job failure, local gate refutation, or seam-round refutation) and the
	// pre-optimization cone stitched instead; Note carries the reason.
	RolledBack bool   `json:"rolled_back,omitempty"`
	Note       string `json:"note,omitempty"`
	// QueuedNS and WallNS are the partition job's scheduling delay and host
	// run time; Incidents counts contained failures inside the job.
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
	// SharedNodes is the duplication cost of the split: the sum of
	// partition sizes minus the live network size (cones mode duplicates
	// logic shared between clusters; levels mode never duplicates).
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
// job, CacheStats is the shared cache's traffic — plus the partition report.
type Result struct {
	flow.Result
	Report
}

// Run optimizes a with the script, partition-parallel. The input is never
// mutated. The returned network is functionally equivalent to the input as
// screened by the same gates the guarded flow runner uses (sampling by
// default, full CEC when Flow.Verify is set); any partition that fails its
// gate is stitched from its pre-optimization cone instead.
func Run(ctx context.Context, a *aig.AIG, script string, opts Options) (Result, error) {
	if _, err := flow.Parse(script); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	start := time.Now()
	cacheBefore := opts.Flow.Cache.Snapshot()

	// Partitioning assumes canonical id order; in-place-edited inputs are
	// compacted first (POs and functions preserved).
	base := a
	if !canonicalOrder(a) {
		base, _ = a.Compact()
	}

	res := Result{Report: Report{Mode: opts.Mode.String(), NodesIn: base.NumAnds()}}
	finish := func() {
		res.Wall = time.Since(start)
		res.CacheStats = opts.Flow.Cache.Snapshot().Sub(cacheBefore)
	}

	var parts []*part
	switch opts.Mode {
	case Cones:
		parts = buildCones(base, opts.TargetSize)
	case Levels:
		parts = buildWindows(base, opts.TargetSize)
	default:
		return Result{}, fmt.Errorf("partition: unknown mode %v", opts.Mode)
	}
	for _, p := range parts {
		res.SharedNodes += len(p.members)
	}
	res.SharedNodes -= base.NumAnds()

	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(opts.Workers)
		defer pool.Close()
	}

	// Profiler labels mark the orchestration phases (the per-partition jobs
	// themselves are labeled by the engine): a CPU profile of a partitioned
	// run separates extraction, optimization, and seam stitching.
	var pres []*aig.AIG
	pprof.Do(ctx, pprof.Labels("partition_phase", "extract"), func(context.Context) {
		pres = extractAll(base, parts, pool)
	})
	jobs := make([]sched.Job, len(parts))
	for i, p := range parts {
		jobs[i] = sched.Job{
			Name:     pres[i].Name,
			AIG:      pres[i],
			Script:   script,
			Priority: len(p.members), // largest partition first (LPT)
			Config:   opts.Flow,
		}
	}
	results, _ := sched.RunSupervised(ctx, pool, jobs, sched.Options{
		MaxConcurrentJobs: opts.Workers,
		Policy:            opts.Supervise,
		Journal:           opts.Journal,
	})

	gateRounds := opts.Flow.GateRounds
	if gateRounds == 0 {
		gateRounds = 4
	}
	chosen := make([]*aig.AIG, len(parts))
	res.Parts = make([]Stat, len(parts))
	for i, r := range results {
		if r.Cancelled || ctx.Err() != nil {
			res.AIG = a
			finish()
			err := r.Err
			if err == nil {
				err = ctx.Err()
			}
			return res, fmt.Errorf("partition: cancelled: %w", err)
		}
		st := &res.Parts[i]
		st.Index = i
		st.POs = len(parts[i].poIdx)
		st.LevelLo, st.LevelHi = parts[i].levelLo, parts[i].levelHi
		st.NodesIn = pres[i].NumAnds()
		st.QueuedNS, st.WallNS = r.Queued, r.Wall
		st.Incidents = len(r.Incidents)
		res.Incidents = append(res.Incidents, r.Incidents...)
		res.Modeled += r.Modeled
		if r.Err != nil {
			// Defensive: flow.Run fails only on parse or cancellation, both
			// handled above — but a failed job must never corrupt the stitch.
			chosen[i] = pres[i]
			st.RolledBack = true
			st.Note = r.Err.Error()
			res.Rollbacks++
			continue
		}
		// Local gate: the partition alone must already be equivalent to its
		// pre-optimization cone before it is allowed near the seams.
		seed := opts.Seed + int64(i)*7919 + 101
		if err := flow.EquivGate(pres[i], r.AIG, opts.Flow.Verify, gateRounds, seed); err != nil {
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

	var merged *aig.AIG
	var err error
	pprof.Do(ctx, pprof.Labels("partition_phase", "stitch"), func(context.Context) {
		merged, err = resolve(base, parts, pres, chosen, resolveConfig{
			verify:    opts.Flow.Verify,
			rounds:    gateRounds,
			maxRounds: opts.MaxConflictRounds,
			seed:      opts.Seed,
			pool:      pool,
		}, &res)
	})
	if err != nil {
		res.AIG = a
		finish()
		return res, err
	}
	for i := range res.Parts {
		res.Parts[i].NodesOut = chosen[i].NumAnds()
	}
	res.AIG = merged
	res.NodesOut = merged.NumAnds()
	finish()
	return res, nil
}

// canonicalOrder reports whether the network has no deleted nodes and every
// fanin id is below its node id (the invariant the builders walk under).
func canonicalOrder(a *aig.AIG) bool {
	if a.NumObjs() != a.NumPIs()+1+a.NumAnds() {
		return false
	}
	ok := true
	a.ForEachAnd(func(id int32) {
		if a.Fanin0(id).Var() >= id || a.Fanin1(id).Var() >= id {
			ok = false
		}
	})
	return ok
}
