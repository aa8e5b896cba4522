// Package flow runs optimization command sequences ("scripts") over AIGs,
// in either the sequential ABC-style mode or the paper's GPU-parallel mode,
// and records the per-command runtime breakdown used by Figure 8.
//
// The command vocabulary matches the paper: b (AND-balancing), rw / rwz
// (rewriting, z = accept zero gain), rf / rfz (refactoring). In parallel
// mode rf and rfz are identical, because the parallel gain is a lower bound
// and zero-gain replacements are always accepted (Section III-D), and every
// parallel rw/rf command is followed by the de-duplication and dangling-node
// cleanup pass, timed separately (Sections III-F, V-B).
package flow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"aigre/internal/aig"
	"aigre/internal/balance"
	"aigre/internal/dedup"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/refactor"
	"aigre/internal/resub"
	"aigre/internal/rewrite"
)

// Well-known scripts from the paper, plus a resubstitution-enriched
// sequence exercising the future-work extension.
const (
	// Resyn2 is ABC's resyn2: b; rw; rf; b; rw; rwz; b; rfz; rwz; b.
	Resyn2 = "b; rw; rf; b; rw; rwz; b; rfz; rwz; b"
	// RfResyn is the paper's rf_resyn (resyn with rw replaced by rf):
	// b; rf; rfz; b; rfz; b.
	RfResyn = "b; rf; rfz; b; rfz; b"
	// CompressRS is a compress2rs-style sequence interleaving
	// resubstitution (the paper's future-work algorithm) with the others.
	CompressRS = "b; rs; rw; rs; rf; rs; b; rwz; rs; b"
)

// Config selects the execution mode and engine options.
type Config struct {
	// Parallel selects the GPU-parallel algorithms; otherwise the
	// sequential ABC-style baselines run.
	Parallel bool
	// Device used in parallel mode (nil = a fresh default device).
	Device *gpu.Device
	// MaxCut is the refactoring cut-size limit (paper: 12; 11 for log2).
	MaxCut int
	// RwzPasses is the number of parallel rewriting passes per rwz command.
	// Default 1, except for a script that parses to the resyn2 command list,
	// where it is 2 (the paper's GPU resyn2 setting) however the script was
	// spelled or invoked.
	RwzPasses int
	// RfPasses is the number of parallel refactoring passes per rf/rfz
	// command (the paper uses 2 in the single-algorithm Table II
	// comparison, 1 inside sequences). Default 1.
	RfPasses int
	// ZeroGain makes the sequential rw and rf commands accept zero-gain
	// replacements, as rwz/rfz do. Parallel engines always accept zero gain
	// (Section III-D), so it has no effect in parallel mode.
	ZeroGain bool
	// GateRounds is the number of 64-pattern random-simulation rounds used
	// by the per-command equivalence gate (zero or negative = 4).
	GateRounds int
	// Verify upgrades the per-command equivalence gate from sampling to a
	// full combinational equivalence check (exhaustive simulation or SAT via
	// internal/cec). This is the CLI -verify flag; it is complete but can be
	// much slower than the default sampling gate.
	Verify bool
	// Cache is the resynthesis cache shared by the rewriting and refactoring
	// commands (nil = the process-wide rcache.Default). Optimization results
	// are identical with or without it; it only cuts host wall-clock.
	Cache *rcache.Cache
}

func (c Config) normalized() Config {
	if c.Device == nil && c.Parallel {
		c.Device = gpu.New(0)
	}
	if c.RwzPasses == 0 {
		c.RwzPasses = 1
	}
	if c.RfPasses == 0 {
		c.RfPasses = 1
	}
	if c.GateRounds <= 0 {
		c.GateRounds = 4
	}
	if c.Cache == nil {
		c.Cache = rcache.Default
	}
	return c
}

// CommandTiming is the per-command record behind Figure 8.
type CommandTiming struct {
	Command      string
	Wall         time.Duration
	Modeled      time.Duration // device-modeled time (parallel mode only)
	DedupWall    time.Duration
	DedupModeled time.Duration
	NodesAfter   int
	LevelsAfter  int
	// Kernels is the per-kernel device profile of this command, including
	// its cleanup pass when one ran (dedup kernels carry "dedup/" names).
	// Parallel mode only; the modeled times sum to Modeled + DedupModeled.
	Kernels []gpu.KernelProfile
}

// Result is the run record of one script: the one definition of what a run
// reports. The layers above embed it beside the fields they add — sched.Result
// (supervision), partition.Result (the partition report) and the public
// aigre.Result / aigre.BatchResult (the Network wrapper) — and its JSON form
// is the part of a cmd/aigre -report job row that comes from the run.
type Result struct {
	// AIG is the optimized network; on a cancelled run the network after the
	// last completed command, nil only when the script failed to parse.
	AIG *aig.AIG `json:"-"`
	// Wall is the measured host time of the run; Modeled the simulated-device
	// time (parallel mode; sequential commands model their wall time).
	Wall    time.Duration `json:"wall_ns"`
	Modeled time.Duration `json:"modeled_ns"`
	// Timings is the per-command breakdown.
	Timings []CommandTiming `json:"-"`
	// Incidents lists every contained failure: commands whose attempt
	// aborted (kernel panic, full hash table), or whose output failed the
	// structural invariant check or the equivalence gate, and what the
	// guarded runner did about it. Empty on a clean run.
	Incidents []Incident `json:"incidents,omitempty"`
	// Profile is the per-kernel device profile of a parallel run (nil for
	// sequential and partitioned runs). The modeled times of its rows sum to
	// the device's modeled time exactly; see gpu.FormatProfile.
	Profile []gpu.KernelProfile `json:"-"`
	// CacheStats is the resynthesis-cache traffic observed during this run
	// (a before/after delta of the configured cache). When the cache is
	// shared with concurrently running jobs the delta includes their traffic
	// too — the counters are cache-global.
	CacheStats rcache.Stats `json:"-"`
}

// Command is one entry of the script vocabulary: the engines behind a command
// name and how execute, the one function that calls them, drives them. Parse,
// the guarded runner, Breakdown and the public single-algorithm entry points
// all consult the one table through Lookup.
type Command struct {
	// Kind is the Breakdown series the command's time is filed under
	// (zero-gain variants fold into their base command).
	Kind string
	// Seq and Par run one pass on the sequential engine and on device d.
	Seq func(a *aig.AIG, cfg Config) *aig.AIG
	Par func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG
	// Passes is the parallel pass count of one script command (nil = 1).
	Passes func(cfg Config) int
	// Cleanup makes parallel mode follow the command with the
	// de-duplication and dangling-node pass (Section III-F).
	Cleanup bool
}

var commands = map[string]Command{
	"b": {Kind: "b",
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { out, _ := balance.Sequential(a); return out },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := balance.Parallel(d, a); return out }},
	"rw":  rewriteCommand(false),
	"rwz": rewriteCommand(true),
	"rf":  refactorCommand(false),
	"rfz": refactorCommand(true),
	"rs": {Kind: "rs", Cleanup: true,
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { out, _ := resub.Sequential(a); return out },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := resub.Parallel(d, a); return out }},
	// The cleanup pass as a command of its own, for RunCommand. It has no
	// sequential engine, so Parse does not admit it to scripts.
	"dedup": {Kind: "dedup",
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := dedup.Run(d, a); return out }},
}

// rewriteCommand builds rw (zero = false) and rwz. Config.ZeroGain turns the
// sequential rw into rwz; only rwz repeats, Config.RwzPasses times.
func rewriteCommand(zero bool) Command {
	c := Command{Kind: "rw", Cleanup: true,
		Seq: func(a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Sequential(a, rewrite.Options{ZeroGain: zero || cfg.ZeroGain, Cache: cfg.Cache})
			return out
		},
		Par: func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Parallel(d, a, rewrite.Options{ZeroGain: zero, Cache: cfg.Cache})
			return out
		}}
	if zero {
		c.Passes = func(cfg Config) int { return cfg.RwzPasses }
	}
	return c
}

// refactorCommand builds rf (zero = false) and rfz. The parallel engine
// always accepts zero gain (Section III-D), so the two differ only on the
// sequential engine.
func refactorCommand(zero bool) Command {
	return Command{Kind: "rf", Cleanup: true,
		Seq: func(a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := refactor.Sequential(a, refactor.Options{MaxCut: cfg.MaxCut, ZeroGain: zero || cfg.ZeroGain, Cache: cfg.Cache})
			return out
		},
		Par: func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := refactor.Parallel(d, a, refactor.Options{MaxCut: cfg.MaxCut, Cache: cfg.Cache})
			return out
		},
		Passes: func(cfg Config) int { return cfg.RfPasses }}
}

// Lookup returns the vocabulary entry for a command name.
func Lookup(name string) (Command, error) {
	c, ok := commands[name]
	if !ok {
		return c, fmt.Errorf("flow: unknown command %q", name)
	}
	return c, nil
}

// resyn2Cmds is the parsed Resyn2 script, what Run compares a command list
// against to apply the paper's two rwz passes.
var resyn2Cmds, _ = Parse(Resyn2)

// Parse splits a script like "b; rw; rfz" into commands, validating names.
func Parse(script string) ([]string, error) {
	var cmds []string
	for _, tok := range strings.Split(script, ";") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		// A script command has both engines; the device-only cleanup pass
		// ("dedup") is part of the vocabulary but not of scripts.
		if c, err := Lookup(tok); err != nil || c.Seq == nil {
			return nil, fmt.Errorf("flow: unknown command %q", tok)
		}
		cmds = append(cmds, tok)
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("flow: empty script")
	}
	return cmds, nil
}

// drive is the run loop under Run and RunCommand. It opens the run record
// (defaults filled in, ctx bound to the device, clock and cache counters
// snapshotted), calls step once per command and files what it returns, and
// closes the record. An error from step ends the run; the network step hands
// back beside it is the run's partial result.
func drive(ctx context.Context, a *aig.AIG, cmds []string, cfg Config,
	step func(ctx context.Context, cur *aig.AIG, i int, cfg Config) (*aig.AIG, CommandTiming, []Incident, error)) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.normalized()
	if cfg.Device != nil {
		cfg.Device.Bind(ctx)
	}
	start := time.Now()
	cacheBefore := cfg.Cache.Snapshot()
	res := Result{AIG: a}
	var err error
	for i := range cmds {
		var t CommandTiming
		var incs []Incident
		if res.AIG, t, incs, err = step(ctx, res.AIG, i, cfg); err != nil {
			break
		}
		res.Incidents = append(res.Incidents, incs...)
		t.NodesAfter = res.AIG.NumAnds()
		t.LevelsAfter = res.AIG.Levels()
		res.Timings = append(res.Timings, t)
		res.Modeled += t.Modeled + t.DedupModeled
	}
	res.Wall = time.Since(start)
	res.CacheStats = cfg.Cache.Snapshot().Sub(cacheBefore)
	if cfg.Device != nil {
		res.Profile = cfg.Device.Profile()
	}
	return res, err
}

// Run executes the script on a copy of the input and returns the optimized
// AIG with the per-command breakdown.
//
// Every command runs guarded: the input AIG serves as a checkpoint (engines
// never mutate their input), the output must pass the structural invariant
// check (aig.Check) and the equivalence gate, and a kernel panic aborts only
// the command. On any of those failures the runner rolls back to the
// checkpoint and degrades — in parallel mode it retries the command on the
// sequential engine, otherwise it skips the command — and records an
// Incident.
//
// ctx cancels the run: between commands, and (in parallel mode, where ctx
// is bound to the device) at every kernel-launch boundary. A cancelled Run
// returns the partial Result — the network after the last completed
// command, with that prefix's timings — alongside an error wrapping
// ctx.Err(). The only other error cause is a script Parse rejects.
func Run(ctx context.Context, a *aig.AIG, script string, cfg Config) (Result, error) {
	cmds, err := Parse(script)
	if err != nil {
		return Result{}, err
	}
	if cfg.RwzPasses == 0 && slices.Equal(cmds, resyn2Cmds) {
		cfg.RwzPasses = 2
	}
	return drive(ctx, a, cmds, cfg, func(ctx context.Context, cur *aig.AIG, i int, cfg Config) (*aig.AIG, CommandTiming, []Incident, error) {
		if cerr := ctx.Err(); cerr != nil {
			return cur, CommandTiming{}, nil, fmt.Errorf("flow: script cancelled before command %d (%s): %w", i, cmds[i], cerr)
		}
		return runGuarded(ctx, cur, cmds[i], i, cfg)
	})
}

// RunCommand runs passes (at least one) repetitions of one vocabulary command
// outside a script and returns the run record Run does, with one timing
// (filed under cmd.Kind). It is the body of the public single-algorithm entry
// points and unguarded: no checkpoint, no gate, no retry on the other engine —
// use Run for those. cfg.Parallel selects the engine; either one repeats.
//
// Engine failures are propagated, not swallowed: a kernel abort
// (*gpu.LaunchError), a launch refused after ctx was cancelled
// (*gpu.CancelledError) or a cancellation noticed between passes ("cancelled
// after p of n passes", wrapping ctx.Err()) is returned beside the partial
// Result, the network after the last completed pass. Any other engine panic
// is a bug and is re-raised.
func RunCommand(ctx context.Context, a *aig.AIG, cmd Command, passes int, cfg Config) (Result, error) {
	return drive(ctx, a, []string{cmd.Kind}, cfg, func(ctx context.Context, cur *aig.AIG, _ int, cfg Config) (*aig.AIG, CommandTiming, []Incident, error) {
		out, t, err := execute(ctx, cur, cmd.Kind, cmd, passes, cfg.Parallel, cfg)
		var bug *enginePanic
		if errors.As(err, &bug) {
			panic(bug.value)
		}
		return out, t, nil, err
	})
}

// execute is the one place a Command turns into engine calls: passes runs of
// its sequential engine or of its device engine on cfg.Device, ctx checked
// between them, the cleanup pass after a device run of a command that asks
// for one, and the timing record (for a device run the modeled times and the
// per-kernel profile are deltas of the device's accounting). An engine panic
// comes back as an error — a *gpu.LaunchError (kernel panic, full hash table
// surfaced through a kernel) or *gpu.CancelledError as itself, anything else
// as an *enginePanic — with an empty timing and the network after the last
// completed pass.
func execute(ctx context.Context, a *aig.AIG, name string, c Command, passes int, parallel bool, cfg Config) (out *aig.AIG, t CommandTiming, err error) {
	defer func() {
		if r := recover(); r != nil {
			t = CommandTiming{Command: name}
			switch e := r.(type) {
			case *gpu.LaunchError:
				err = e
			case *gpu.CancelledError:
				err = e
			default:
				err = &enginePanic{value: r}
			}
		}
	}()
	out, t.Command = a, name
	passes = max(passes, 1)
	d := cfg.Device
	var snap gpu.Stats
	var profSnap []gpu.KernelProfile
	if parallel {
		snap, profSnap = d.Stats(), d.Profile()
	}
	start := time.Now()
	for p := 0; p < passes; p++ {
		if cerr := ctx.Err(); cerr != nil {
			return out, t, fmt.Errorf("aigre: cancelled after %d of %d passes: %w", p, passes, cerr)
		}
		if parallel {
			out = c.Par(d, out, cfg)
		} else {
			out = c.Seq(out, cfg)
		}
	}
	t.Wall = time.Since(start)
	if !parallel {
		t.Modeled = t.Wall
		return out, t, nil
	}
	afterCmd := d.Stats()
	t.Modeled = afterCmd.Sub(snap).ModeledTime
	if c.Cleanup {
		dstart := time.Now()
		out, _ = dedup.Run(d, out)
		t.DedupWall = time.Since(dstart)
		t.DedupModeled = d.Stats().Sub(afterCmd).ModeledTime
	}
	t.Kernels = gpu.DiffProfile(d.Profile(), profSnap)
	return out, t, nil
}

// enginePanic is an engine panic that is neither a kernel failure nor a
// cancelled launch: a bug in an engine, contained by the guarded runner and
// re-raised by RunCommand.
type enginePanic struct{ value any }

func (e *enginePanic) Error() string { return fmt.Sprintf("flow: engine panic: %v", e.value) }

// Unwrap exposes a panic value that is itself an error.
func (e *enginePanic) Unwrap() error {
	err, _ := e.value.(error)
	return err
}

// Breakdown aggregates timings by command kind (b, rw, rf, dedup), the
// Figure 8 data series.
func Breakdown(timings []CommandTiming) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range timings {
		out[commands[t.Command].Kind] += t.Modeled
		out["dedup"] += t.DedupModeled
	}
	return out
}

// BreakdownWall is Breakdown over wall-clock times.
func BreakdownWall(timings []CommandTiming) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range timings {
		out[commands[t.Command].Kind] += t.Wall
		out["dedup"] += t.DedupWall
	}
	return out
}
