// Package aigre is a logic-optimization library for And-Inverter Graphs
// (AIGs), reproducing the system of "Rethinking AIG Resynthesis in Parallel"
// (Liu & Young, DAC 2023): parallel refactoring and AND-balancing with
// data-race-free parallel replacement, parallel rewriting in the style of
// NovelRewrite, the de-duplication/dangling cleanup pass, ABC-style
// sequential baselines for all three algorithms, and fully parallelized
// optimization sequences (resyn2, rf_resyn).
//
// The parallel algorithms are expressed as kernels over a simulated
// massively-parallel device (see the gpu execution model in DESIGN.md); on a
// multi-core host they run on a goroutine pool, and the device additionally
// reports modeled GPU time from work/span instrumentation.
//
// Quick start:
//
//	n, _ := aigre.ReadFile("design.aig")
//	res, _ := n.Resyn2(context.Background(), aigre.Options{Parallel: true})
//	fmt.Println(res.AIG.Stats())
//	res.AIG.WriteFile("design_opt.aig")
//
// Every optimization entry point takes a context.Context first; cancelling
// it aborts the run between kernel launches and commands, returning the
// partial Result together with an error wrapping ctx.Err(). RunBatch (see
// batch.go) runs many networks concurrently over one shared, bounded worker
// budget.
package aigre

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"aigre/internal/aig"
	"aigre/internal/aiger"
	"aigre/internal/cec"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/sched"
)

// Cache is a resynthesis cache: it memoizes NPN canonization for rewriting
// cuts, keyed by the cut function, and factored programs for refactoring
// cones, keyed by the exact cone structure. Optimization results are
// bit-identical with or without a cache — it only cuts host wall-clock — and
// a Cache is safe for concurrent use, so one may be shared across passes,
// runs, and jobs.
//
// A nil Cache in Options selects a process-wide default cache. Use NewCache
// to isolate a run (for reproducible per-run statistics) and
// DisabledCache to turn memoization off entirely.
type Cache struct{ c *rcache.Cache }

// NewCache returns an empty resynthesis cache with the default capacity.
func NewCache() *Cache { return &Cache{c: rcache.New()} }

// DisabledCache returns a cache that never stores or hits: every lookup is a
// miss. Useful for measuring the cache's effect and in tests.
func DisabledCache() *Cache { return &Cache{c: rcache.Disabled()} }

// Stats returns a snapshot of the cache's lifetime counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.c.Snapshot()
}

// CacheStats reports resynthesis-cache traffic. Hits/Misses/Evictions count
// the program compartment (refactoring cones); NpnHits/NpnMisses count the
// NPN-canonization compartment (rewriting cuts); Entries is the current
// number of cached programs. HitRate is Hits / (Hits + Misses).
type CacheStats = rcache.Stats

// Network is a combinational And-Inverter Graph.
type Network struct {
	aig *aig.AIG
}

// Stats summarizes a network.
type Stats struct {
	Name   string
	PIs    int
	POs    int
	Nodes  int // AND nodes
	Levels int // delay
}

func (s Stats) String() string {
	return fmt.Sprintf("%-16s i/o = %5d/%5d  and = %8d  lev = %5d", s.Name, s.PIs, s.POs, s.Nodes, s.Levels)
}

// Options selects how the optimization entry points run a script: the
// execution mode, the worker budget, checking, caching and partitioning.
// What runs is the script's alone; no option repeats or rewrites a command
// (zero gain is "rwz"/"rfz", two refactoring passes are "rf; rf").
type Options struct {
	// Parallel runs the paper's GPU-parallel algorithms; false runs the
	// ABC-style sequential baselines.
	Parallel bool
	// Workers is this job's worker budget: the pool size of a Network
	// method's one-job engine (BatchOptions.Workers; 0 = GOMAXPROCS), and in
	// a Batch the cap on the pool workers one kernel launch of the job, or of
	// each of its partitions, may occupy (0 = the whole pool).
	Workers int
	// Verify upgrades the per-command functional gate of every run from
	// random-simulation sampling to a full combinational equivalence check
	// (the CLI -verify flag). Complete but potentially much slower.
	Verify bool
	// FaultPlans is a chaos-testing facility: each plan panics, corrupts or
	// stalls the Nth kernel launch matching a name pattern (gpu.FaultPlan).
	// The plans go into each attempt's device lease, fire-progress carried
	// across retries; a partitioned run, whose partitions each hold a lease,
	// ignores them.
	FaultPlans []gpu.FaultPlan
	// Cache is the resynthesis cache consulted by the rewriting and
	// refactoring engines (nil = a process-wide default cache). Results are
	// bit-identical with or without it. See Cache.
	Cache *Cache
	// Partition, when its Mode is not PartitionOff, makes a script run
	// partition-parallel: the network is split into size-bounded partitions,
	// the job's attempt runs the script on each, largest first and at most
	// the pool's width at once, sharing one resynthesis cache, and the
	// results are stitched back with seam conflict breaking, equivalence
	// gating and per-partition rollback (Result.Partition reports them). The
	// job stays one supervised job: its deadline, watchdog and retries cover
	// every partition. See PartitionOptions.
	Partition PartitionOptions
}

// Result reports one job — a Network method's run, an Engine.Run or a
// RunBatch job — as the engine's job report wrapped with the optimized
// Network. The report's Record is what is stored and printed (with Partition,
// its JSON form is a cmd/aigre -report row): Name and Script, the Cancelled /
// TimedOut / Quarantined verdicts, Attempts and Preemptions, Queued, Wall
// (measured host time) and Modeled (simulated-device time; equals the
// commands' wall for sequential runs), node and level counts before and
// after, Incidents (contained failures and how the guarded runner degraded
// them), Profile (per-kernel device profile of a parallel run; see
// gpu.FormatProfile) and CacheStats. Beside it sit Timings (the per-command
// breakdown), Partition (the PartitionReport of a partition-parallel run, nil
// otherwise) and Err (nil on success, wraps ctx.Err() on cancellation, or
// reports a script error; contained engine failures appear in Incidents, not
// Err). See sched.Result for the field documentation. Every method fills in
// the whole report: the single-algorithm ones (Balance, Rewrite, ...) are
// one-command scripts.
type Result struct {
	// AIG is the optimized network (it shadows the report's internal one);
	// on a cancelled job the partial result (after the last completed
	// command), nil only if the script failed to parse.
	AIG *Network `json:"-"`
	sched.Result
}

// resultOf wraps a job report in the public shape.
func resultOf(r sched.Result) Result {
	out := Result{Result: r}
	if r.AIG != nil {
		out.AIG = &Network{aig: r.AIG}
	}
	return out
}

// New returns an empty network with the given number of primary inputs.
// Construction proceeds through AddAnd/AddPO using Literals.
func New(numPIs int) *Network {
	a := aig.New(numPIs)
	a.EnableStrash()
	return &Network{aig: a}
}

// FromInternal wraps an internal AIG (used by the cmd/ tools and tests).
//
// Unstable escape hatch: the internal/aig representation changes without
// notice between versions and FromInternal performs no validation — a
// malformed AIG breaks the Network invariants silently. Use Read/ReadFile
// or the construction API (New, AddAnd, AddPO, ...) instead; call Check to
// validate a wrapped AIG.
func FromInternal(a *aig.AIG) *Network { return &Network{aig: a} }

// Internal exposes the underlying AIG (for cmd/ tools and experiments).
//
// Unstable escape hatch: the returned value aliases the Network's state
// (mutating it bypasses every invariant this package maintains) and its
// type belongs to an internal package that changes without notice. Prefer
// the Network methods; call Check after any direct manipulation.
func (n *Network) Internal() *aig.AIG { return n.aig }

// Check validates the network's structural invariants — acyclicity, fanin
// bounds, structural-hash and fanout-count consistency, PO validity —
// without reaching into internals. It is the validation companion of the
// Internal/FromInternal escape hatches; a Network built through the public
// construction and I/O APIs always passes.
func (n *Network) Check() error { return aig.Check(n.aig) }

// Literal is a signal: a node with optional complementation.
type Literal = aig.Lit

// Const0 and Const1 are the constant literals.
const (
	Const0 = aig.ConstFalse
	Const1 = aig.ConstTrue
)

// PI returns the literal of the i-th primary input.
func (n *Network) PI(i int) Literal { return n.aig.PI(i) }

// AddAnd returns the AND of two literals (structurally hashed).
func (n *Network) AddAnd(a, b Literal) Literal { return n.aig.NewAnd(a, b) }

// AddOr returns the OR of two literals.
func (n *Network) AddOr(a, b Literal) Literal { return n.aig.Or(a, b) }

// AddXor returns the XOR of two literals.
func (n *Network) AddXor(a, b Literal) Literal { return n.aig.Xor(a, b) }

// AddMux returns sel ? t : e.
func (n *Network) AddMux(sel, t, e Literal) Literal { return n.aig.Mux(sel, t, e) }

// AddPO makes lit a primary output and returns its index.
func (n *Network) AddPO(lit Literal) int { return n.aig.AddPO(lit) }

// Stats returns the network statistics.
func (n *Network) Stats() Stats {
	s := n.aig.Stats()
	return Stats{Name: n.aig.Name, PIs: s.PIs, POs: s.POs, Nodes: s.Ands, Levels: s.Levels}
}

// Name returns the network name.
func (n *Network) Name() string { return n.aig.Name }

// SetName sets the network name.
func (n *Network) SetName(name string) { n.aig.Name = name }

// Clone returns an independent copy.
func (n *Network) Clone() *Network { return &Network{aig: n.aig.Clone()} }

// Read parses an AIGER stream (binary "aig" or ASCII "aag", auto-detected).
func Read(r io.Reader) (*Network, error) {
	a, err := aiger.Read(r)
	if err != nil {
		return nil, err
	}
	return &Network{aig: a.Rehash()}, nil
}

// ReadFile reads an AIGER file.
func ReadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n.aig.Name == "" {
		n.aig.Name = strings.TrimSuffix(strings.TrimSuffix(path, ".aig"), ".aag")
	}
	return n, nil
}

// Write emits the network in binary AIGER.
func (n *Network) Write(w io.Writer) error { return aiger.WriteBinary(w, n.aig) }

// WriteASCII emits the network in ASCII AIGER ("aag").
func (n *Network) WriteASCII(w io.Writer) error { return aiger.WriteASCII(w, n.aig) }

// WriteFile writes the network to a file, choosing the format from the
// extension (".aag" = ASCII, anything else binary).
func (n *Network) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".aag") {
		return n.WriteASCII(f)
	}
	return n.Write(f)
}

// flowConfig maps the engine parameters onto a flow.Config, without a device:
// jobs lease theirs from the engine's pool.
func (o Options) flowConfig() flow.Config {
	cfg := flow.Config{Parallel: o.Parallel, Verify: o.Verify, Cache: rcache.Default}
	if o.Cache != nil {
		cfg.Cache = o.Cache.c
	}
	return cfg
}

// Balance runs AND-balancing (delay optimization, Section IV): the
// one-command script "b". Like Refactor, Rewrite, Resub and Dedup it is Run
// of its command, checkpointed, gated and supervised like any script.
func (n *Network) Balance(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, "b", opts)
}

// Refactor runs one refactoring pass (Section III): the script "rf". In
// parallel mode its replacement ends with the de-duplication and
// dangling-node pass (Section III-F). More passes are
// a longer script: the paper's "GPU rf (x2)" is Run(ctx, "rf; rf", opts).
func (n *Network) Refactor(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, "rf", opts)
}

// Rewrite runs rewriting: the script "rw" (zero-gain rewriting is
// Run(ctx, "rwz", opts)). In parallel mode this follows [9] (parallel
// evaluation, sequential replacement); the strash-aware replacement leaves no
// duplicate for a cleanup pass to merge.
func (n *Network) Rewrite(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, "rw", opts)
}

// Resub runs resubstitution (the paper's future-work algorithm), the script
// "rs": nodes are re-expressed as functions of existing divisors. In
// parallel mode the divisor search for all nodes runs on the device.
func (n *Network) Resub(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, "rs", opts)
}

// Dedup runs the de-duplication and dangling-node cleanup pass alone, the
// script "dedup". It always executes on the device; the script's sequential
// engine (a full rehash) serves only as the degrade ladder's fallback.
func (n *Network) Dedup(ctx context.Context, opts Options) (Result, error) {
	opts.Parallel = true
	return n.Run(ctx, "dedup", opts)
}

// Run executes a command script such as "b; rw; rfz" (see package flow for
// the vocabulary) under the guarded runner: every command is checkpointed,
// validated, and degraded on failure (Result.Incidents lists containments).
// It is Engine.Run of this one job on an engine of its own — a pool of
// opts.Workers, no journal, zero policy.
//
// Cancelling ctx aborts the script between kernel launches and commands;
// the partial Result (network and timings after the last completed command)
// is returned together with an error wrapping ctx.Err().
func (n *Network) Run(ctx context.Context, script string, opts Options) (Result, error) {
	e, err := NewEngine(context.Background(), BatchOptions{Workers: opts.Workers})
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	res, err := e.Run(ctx, Batch{Name: n.Name(), AIG: n, Script: script, Options: opts})
	if err != nil {
		return Result{}, err
	}
	return res, res.Err
}

// Resyn2 runs the resyn2 sequence (b; rw; rf; b; rw; rwz; b; rfz; rwz; b).
// In parallel mode each rwz runs two rewriting passes, as it does in any
// script, matching the paper.
func (n *Network) Resyn2(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, flow.Resyn2, opts)
}

// RfResyn runs the paper's rf_resyn sequence (b; rf; rfz; b; rfz; b).
func (n *Network) RfResyn(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, flow.RfResyn, opts)
}

// CompressRS runs a compress2rs-style sequence that interleaves
// resubstitution with balancing, rewriting and refactoring.
func (n *Network) CompressRS(ctx context.Context, opts Options) (Result, error) {
	return n.Run(ctx, flow.CompressRS, opts)
}

// EquivalentTo checks combinational equivalence against another network
// (random + exhaustive simulation, then SAT).
func (n *Network) EquivalentTo(other *Network) (bool, error) {
	res, err := cec.Check(n.aig, other.aig, cec.Options{})
	if err != nil {
		return false, err
	}
	return res.Equivalent, nil
}
