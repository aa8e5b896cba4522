// Package partition implements partition-parallel optimization of large
// AIGs. The network is split into size-bounded partitions — output-cone
// clusters or level-window slices, every node owned by exactly one — each
// partition is optimized as an independent prioritized job on the batch
// engine (internal/sched, largest partition first, sharing one resynthesis
// cache), and the optimized partitions are stitched back together with
// conflict breaking at the seams: duplicate structure created by independent
// jobs is merged level by level under a fixed winner priority
// (stitchParallel), and the stitched result must pass the structural
// invariant check plus the sampling-equivalence gate of the guarded flow
// runner. A partition that refutes is rolled back to its pre-optimization
// cone.
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
	// Workers bounds how many partition jobs run at once (0 = the pool's
	// size).
	Workers int
	// Pool is the engine's worker pool (required, not closed by Run): the
	// partition jobs lease from it and extraction and stitch fan out on it,
	// so a partitioned job cannot oversubscribe the host.
	Pool *sched.Pool
	// Flow is the per-partition execution config (mode, cut limits, gate
	// settings, cache). Flow.Device is ignored: parallel partitions lease
	// device capacity from the pool. Flow.Cache is shared across every
	// partition job (nil = rcache.Default).
	Flow flow.Config
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

// gateSeed is the fixed base of every gate's sampling seed.
const gateSeed = 1

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
	if o.Flow.GateRounds <= 0 {
		o.Flow.GateRounds = 4
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
func Run(ctx context.Context, a *aig.AIG, script string, opts Options) (res Result, err error) {
	opts = opts.normalized()
	start := time.Now()
	cacheBefore := opts.Flow.Cache.Snapshot()

	// Partitioning assumes canonical id order; in-place-edited inputs are
	// compacted first (POs and functions preserved).
	base := a
	if !canonicalOrder(a) {
		base, _ = a.Compact()
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
	res = Result{Report: Report{Mode: opts.Mode.String(), NodesIn: base.NumAnds()}}
	defer func() {
		res.Wall = time.Since(start)
		res.CacheStats = opts.Flow.Cache.Snapshot().Sub(cacheBefore)
		if err != nil {
			res.AIG = a // a failed or cancelled run hands back the input
		}
	}()

	// Profiler labels mark the orchestration phases (the per-partition jobs
	// themselves are labeled by the engine): a CPU profile of a partitioned
	// run separates extraction, optimization, and seam stitching.
	var pres []*aig.AIG
	pprof.Do(ctx, pprof.Labels("partition_phase", "extract"), func(context.Context) {
		pres = extractAll(ctx, base, parts, opts.Pool)
	})
	if err := alive(ctx); err != nil {
		return res, cancelled(err)
	}
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
	results, _ := sched.RunSupervised(ctx, opts.Pool, jobs, sched.Options{
		MaxConcurrentJobs: opts.Workers,
		Policy:            opts.Supervise,
		Journal:           opts.Journal,
	})

	chosen := make([]*aig.AIG, len(parts))
	res.Parts = make([]Stat, len(parts))
	for i, r := range results {
		if err := alive(ctx); r.Cancelled || err != nil {
			if r.Cancelled {
				err = r.Err
			}
			return res, cancelled(err)
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
		seed := gateSeed + int64(i)*7919 + 101
		if err := flow.EquivGate(pres[i], r.AIG, opts.Flow.Verify, opts.Flow.GateRounds, seed); err != nil {
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
		res.AIG, err = resolve(ctx, base, parts, pres, chosen, opts, &res)
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

// cancelled wraps the context error that ended a run, as a cancelled
// partition job's error is wrapped.
func cancelled(err error) error { return fmt.Errorf("partition: cancelled: %w", err) }

// alive is the orchestration's liveness point — between phases, per partition
// gate, per stitch round and every levelBatch merge levels: it beats the
// watchdog's heartbeat (these phases launch no kernel) and returns ctx.Err().
func alive(ctx context.Context) error {
	if hb := sched.HeartbeatFrom(ctx); hb != nil {
		hb.Beat()
	}
	return ctx.Err()
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
