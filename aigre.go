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

// Options selects the execution mode and algorithm parameters for the
// optimization entry points.
type Options struct {
	// Parallel runs the paper's GPU-parallel algorithms; false runs the
	// ABC-style sequential baselines.
	Parallel bool
	// Workers sizes the pool behind this Network's methods (0 = GOMAXPROCS):
	// the pool of Run's one-job engine (BatchOptions.Workers) and the device of
	// the single-algorithm entry points. Ignored in a Batch.
	Workers int
	// MaxCut is the refactoring cut-size limit (default 12, the paper's
	// setting).
	MaxCut int
	// ZeroGain accepts zero-gain replacements in the sequential engines
	// (parallel engines always accept them; Section III-D). In script runs
	// it makes the sequential rw/rf commands behave like rwz/rfz.
	ZeroGain bool
	// Passes repeats the algorithm (the paper evaluates parallel
	// refactoring with 2 passes in Table II). In script runs it sets the
	// parallel refactoring passes per rf/rfz command. Default 1.
	Passes int
	// RwzPasses is the number of parallel rewriting passes per rwz command
	// inside sequences. Default 1, except for a script that parses to the
	// resyn2 command list — however spelled, through Run, Resyn2 or a batch
	// — where it is 2, the paper's GPU resyn2 setting.
	RwzPasses int
	// Verify upgrades the per-command functional gate of script runs from
	// random-simulation sampling to a full combinational equivalence check
	// (the CLI -verify flag). Complete but potentially much slower.
	Verify bool
	// GateRounds is the number of 64-pattern sampling rounds of the default
	// per-command equivalence gate in script runs (zero or negative = 4).
	GateRounds int
	// FaultPlans is a chaos-testing facility: each plan panics, corrupts or
	// stalls the Nth kernel launch matching a name pattern (gpu.FaultPlan).
	// The plans go into each attempt's device lease, fire-progress carried
	// across retries; a partitioned run, whose partition jobs hold the leases,
	// ignores them.
	FaultPlans []gpu.FaultPlan
	// Cache is the resynthesis cache consulted by the rewriting and
	// refactoring engines (nil = a process-wide default cache). Results are
	// bit-identical with or without it. See Cache.
	Cache *Cache
	// Partition, when its Mode is not PartitionOff, makes a script run
	// partition-parallel: the network is split into size-bounded partitions,
	// each runs the script as a prioritized job on the engine's pool, sharing
	// one resynthesis cache, and the results are stitched back with seam
	// conflict breaking, equivalence gating and per-partition rollback
	// (Result.Partition reports them). See PartitionOptions.
	Partition PartitionOptions
}

// Result reports an optimization run: the run record — Wall (measured host
// time), Modeled (simulated-device time; equals the commands' wall for
// sequential runs), Timings (the per-command breakdown of sequence runs),
// Incidents (contained failures of a script run and how the guarded runner
// degraded them; empty on a clean run), Profile (per-kernel device profile of
// a parallel run, nil otherwise; see gpu.FormatProfile) and CacheStats (the
// resynthesis-cache traffic observed during the run) — wrapped with the
// optimized Network. See flow.Result for the field documentation.
type Result struct {
	// AIG is the optimized network (it shadows the record's internal one).
	AIG *Network `json:"-"`
	flow.Result
	// Partition is the partition-parallel report of a run with
	// Options.Partition enabled (nil otherwise): partitioning mode, seam
	// conflicts found and broken, rollbacks, and one row per partition.
	Partition *PartitionReport `json:"partition,omitempty"`
}

// resultOf wraps a run record (and the partition report, if any) in the
// public shape.
func resultOf(r flow.Result, pr *PartitionReport) Result {
	out := Result{Result: r, Partition: pr}
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
	cfg := flow.Config{
		Parallel:   o.Parallel,
		MaxCut:     o.MaxCut,
		RwzPasses:  o.RwzPasses,
		RfPasses:   o.Passes,
		ZeroGain:   o.ZeroGain,
		Verify:     o.Verify,
		GateRounds: o.GateRounds,
		Cache:      rcache.Default,
	}
	if o.Cache != nil {
		cfg.Cache = o.Cache.c
	}
	return cfg
}

// runCommand runs the named vocabulary command as a single algorithm through
// flow.RunCommand: passes repetitions on the selected engine, then (parallel
// mode, rewriting/refactoring/resubstitution) the cleanup pass, unguarded — a
// kernel abort or a cancellation comes back as an error beside the partial
// Result. Use Run for checkpointed, gated execution.
func (n *Network) runCommand(ctx context.Context, opts Options, name string, passes int) (Result, error) {
	cmd, err := flow.Lookup(name)
	if err != nil {
		return Result{}, err
	}
	cfg := opts.flowConfig()
	if opts.Parallel {
		cfg.Device = gpu.New(opts.Workers)
		cfg.Device.InjectFaults(opts.FaultPlans...)
	}
	res, err := flow.RunCommand(ctx, n.aig, cmd, passes, cfg)
	return resultOf(res, nil), err
}

// Balance runs AND-balancing (delay optimization, Section IV). Like
// Refactor, Rewrite, Resub and Dedup it is one unguarded command run; see
// flow.RunCommand for the execution and error contract.
func (n *Network) Balance(ctx context.Context, opts Options) (Result, error) {
	return n.runCommand(ctx, opts, "b", 1)
}

// Refactor runs refactoring (Section III). In parallel mode the cleanup
// pass (Section III-F) is included.
func (n *Network) Refactor(ctx context.Context, opts Options) (Result, error) {
	return n.runCommand(ctx, opts, "rf", opts.Passes)
}

// Rewrite runs rewriting. In parallel mode this follows [9] (parallel
// evaluation, sequential replacement) plus the cleanup pass.
func (n *Network) Rewrite(ctx context.Context, opts Options) (Result, error) {
	name := "rw"
	if opts.ZeroGain {
		name = "rwz"
	}
	return n.runCommand(ctx, opts, name, opts.Passes)
}

// Resub runs resubstitution (the paper's future-work algorithm): nodes are
// re-expressed as functions of existing divisors. In parallel mode the
// divisor search for all nodes runs on the device.
func (n *Network) Resub(ctx context.Context, opts Options) (Result, error) {
	return n.runCommand(ctx, opts, "rs", opts.Passes)
}

// Dedup runs the de-duplication and dangling-node cleanup pass alone. It
// always executes on the device (the pass has no sequential variant).
func (n *Network) Dedup(ctx context.Context, opts Options) (Result, error) {
	opts.Parallel = true
	return n.runCommand(ctx, opts, "dedup", 1)
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
	br, err := e.Run(ctx, Batch{Name: n.Name(), AIG: n, Script: script, Options: opts})
	if err != nil {
		return Result{}, err
	}
	return resultOf(br.Result.Result, br.Partition), br.Err
}

// Resyn2 runs the resyn2 sequence (b; rw; rf; b; rw; rwz; b; rfz; rwz; b).
// In parallel mode rwz runs two rewriting passes, matching the paper (see
// Options.RwzPasses).
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
