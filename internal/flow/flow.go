// Package flow runs optimization command sequences ("scripts") over AIGs,
// in either the sequential ABC-style mode or the paper's GPU-parallel mode,
// and records the per-command runtime breakdown used by Figure 8.
//
// The command vocabulary matches the paper: b (AND-balancing), rw / rwz
// (rewriting, z = accept zero gain), rf / rfz (refactoring), plus rs
// (resubstitution) and dedup (the cleanup pass alone; aig.Rehash is its
// sequential engine). In parallel mode rf and rfz are identical, because the
// parallel gain is a lower bound and zero-gain replacements are always
// accepted (Section III-D), and every parallel rw/rf/rs command is followed
// by the de-duplication and dangling-node cleanup pass, timed separately
// (Sections III-F, V-B). A single algorithm is a one-command script.
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

// GateRounds is the number of 64-pattern random-simulation rounds of the
// per-command sampling equivalence gate (EquivGate).
const GateRounds = 4

// Config selects the execution mode and engine options.
type Config struct {
	// Parallel selects the GPU-parallel algorithms; otherwise the
	// sequential ABC-style baselines run.
	Parallel bool
	// MaxCut is the refactoring cut-size limit (paper: 12; 11 for log2).
	MaxCut int
	// RfPasses is the number of refactoring passes per rf/rfz command, on
	// either engine (the paper uses 2 parallel passes in the single-algorithm
	// Table II comparison, 1 inside sequences). Default 1.
	RfPasses int
	// ZeroGain makes the sequential rw and rf commands accept zero-gain
	// replacements, as rwz/rfz do. Parallel engines always accept zero gain
	// (Section III-D), so it has no effect in parallel mode.
	ZeroGain bool
	// Verify upgrades the per-command equivalence gate from sampling to a
	// full combinational equivalence check (exhaustive simulation or SAT via
	// internal/cec). This is the CLI -verify flag; it is complete but can be
	// much slower than the default sampling gate.
	Verify bool
	// Cache is the resynthesis cache shared by the rewriting and refactoring
	// commands (nil = the process-wide rcache.Default). Optimization results
	// are identical with or without it; it only cuts host wall-clock.
	Cache *rcache.Cache

	// rwzPasses is the number of parallel rewriting passes per rwz command:
	// Run sets 2 for a script that parses to the resyn2 command list (the
	// paper's GPU resyn2 setting, however the script was spelled); zero runs
	// one pass. The sequential rwz always runs one.
	rwzPasses int
}

func (c Config) normalized() Config {
	if c.RfPasses == 0 {
		c.RfPasses = 1
	}
	if c.Cache == nil {
		c.Cache = rcache.Default
	}
	return c
}

// CommandTiming is the per-command record behind Figure 8, and a row of the
// "commands" array of cmd/aigre -profile-json. Wall and Modeled cover the
// command's own passes; DedupWall and DedupModeled its cleanup pass.
type CommandTiming struct {
	Command      string        `json:"command"`
	Wall         time.Duration `json:"wall_ns"`
	Modeled      time.Duration `json:"modeled_ns"` // device-modeled time (parallel mode only)
	DedupWall    time.Duration `json:"dedup_wall_ns"`
	DedupModeled time.Duration `json:"dedup_modeled_ns"`
	NodesAfter   int           `json:"nodes_after"`
	LevelsAfter  int           `json:"levels_after"`
	// Kernels is the per-kernel device profile of this command, including
	// its cleanup pass when one ran (dedup kernels carry "dedup/" names).
	// Parallel mode only; the modeled times sum to Modeled + DedupModeled.
	Kernels []gpu.KernelProfile `json:"kernels,omitempty"`
}

// Record is the part of a run's Result that outlives the run: what is
// stored, served and printed. It holds no network and no timings, so a kept
// record never keeps an optimized AIG alive. sched.Record, the job record,
// embeds it.
type Record struct {
	// Wall is the measured host time of the run; Modeled the simulated-device
	// time (parallel mode; sequential commands model their wall time).
	Wall    time.Duration `json:"wall_ns"`
	Modeled time.Duration `json:"modeled_ns"`
	// Incidents lists every contained failure: commands whose attempt
	// aborted (kernel panic, full hash table), or whose output failed the
	// structural invariant check or the equivalence gate, and what the
	// guarded runner did about it. Empty on a clean run.
	Incidents []Incident `json:"incidents,omitempty"`
	// Profile is the per-kernel device profile of a parallel run (nil for
	// sequential and partitioned runs). The modeled times of its rows sum to
	// the device's modeled time exactly; see gpu.FormatProfile.
	Profile []gpu.KernelProfile `json:"profile,omitempty"`
	// CacheStats is the resynthesis-cache traffic observed during this run
	// (a before/after delta of the configured cache). When the cache is
	// shared with concurrently running jobs the delta includes their traffic
	// too — the counters are cache-global.
	CacheStats rcache.Stats `json:"cache"`
}

// Result is the in-memory outcome of one script: the run Record plus the
// optimized network and the per-command breakdown. partition.Result embeds
// it; sched.Result keeps its three parts beside the job's supervision record.
type Result struct {
	// AIG is the optimized network; on a cancelled run the network after the
	// last completed command, nil only when the script failed to parse.
	AIG *aig.AIG
	// Timings is the per-command breakdown.
	Timings []CommandTiming
	Record
}

// command is one entry of the script vocabulary: the engines behind a command
// name and how execute, the one function that calls them, drives them. Parse,
// the guarded runner and Breakdown consult the one table.
type command struct {
	// Kind is the Breakdown series the command's time is filed under
	// (zero-gain variants fold into their base command).
	Kind string
	// Seq and Par run one pass on the sequential engine and on device d.
	Seq func(a *aig.AIG, cfg Config) *aig.AIG
	Par func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG
	// Passes is the pass count of one script command on the engine
	// cfg.Parallel selects (nil = 1).
	Passes func(cfg Config) int
	// Cleanup makes parallel mode follow the command with the
	// de-duplication and dangling-node pass (Section III-F).
	Cleanup bool
}

var commands = map[string]command{
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
	// The cleanup pass as a command of its own; a full rehash is its
	// sequential reference.
	"dedup": {Kind: "dedup",
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { return a.Rehash() },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := dedup.Run(d, a); return out }},
}

// rewriteCommand builds rw (zero = false) and rwz. Config.ZeroGain turns the
// sequential rw into rwz; only the parallel rwz repeats, Config.rwzPasses
// times.
func rewriteCommand(zero bool) command {
	c := command{Kind: "rw", Cleanup: true,
		Seq: func(a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Sequential(a, rewrite.Options{ZeroGain: zero || cfg.ZeroGain, Cache: cfg.Cache})
			return out
		},
		Par: func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Parallel(d, a, rewrite.Options{ZeroGain: zero, Cache: cfg.Cache})
			return out
		}}
	if zero {
		c.Passes = func(cfg Config) int {
			if !cfg.Parallel {
				return 1
			}
			return cfg.rwzPasses
		}
	}
	return c
}

// refactorCommand builds rf (zero = false) and rfz. The parallel engine
// always accepts zero gain (Section III-D), so the two differ only on the
// sequential engine.
func refactorCommand(zero bool) command {
	return command{Kind: "rf", Cleanup: true,
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
		if _, ok := commands[tok]; !ok {
			return nil, fmt.Errorf("flow: unknown command %q", tok)
		}
		cmds = append(cmds, tok)
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("flow: empty script")
	}
	return cmds, nil
}

// Run executes the script on a copy of the input and returns the optimized
// AIG with the per-command breakdown. In parallel mode the device engines run
// on d, which must not be nil (sched passes a lease of its pool); a
// sequential run ignores d.
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
// ctx.Err(). The only other error causes are a script Parse rejects and a
// parallel run without a device.
func Run(ctx context.Context, d *gpu.Device, a *aig.AIG, script string, cfg Config) (Result, error) {
	cmds, err := Parse(script)
	if err != nil {
		return Result{}, err
	}
	if cfg.Parallel && d == nil {
		return Result{}, errors.New("flow: a parallel run needs a device")
	}
	if slices.Equal(cmds, resyn2Cmds) {
		cfg.rwzPasses = 2
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.normalized()
	if d != nil {
		d.Bind(ctx)
	}
	start := time.Now()
	cacheBefore := cfg.Cache.Snapshot()
	res := Result{AIG: a}
	for i, cmd := range cmds {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("flow: script cancelled before command %d (%s): %w", i, cmd, cerr)
			break
		}
		var t CommandTiming
		var incs []Incident
		if res.AIG, t, incs, err = runGuarded(ctx, d, res.AIG, cmd, i, cfg); err != nil {
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
	if d != nil {
		res.Profile = d.Profile()
	}
	return res, err
}

// execute is the one place a command turns into engine calls: c.Passes runs
// of its sequential engine or of its device engine on d (cfg.Parallel
// selects), ctx checked between them, the cleanup pass after a device run of
// a command that asks for one, and the timing record (for a device run the
// modeled times and the per-kernel profile are deltas of the device's
// accounting). An engine panic comes back as an error — a *gpu.LaunchError
// (kernel panic, full hash table surfaced through a kernel) or
// *gpu.CancelledError as itself, anything else as an engine-panic error —
// with an empty timing.
func execute(ctx context.Context, d *gpu.Device, a *aig.AIG, name string, c command, cfg Config) (out *aig.AIG, t CommandTiming, err error) {
	defer func() {
		if r := recover(); r != nil {
			t = CommandTiming{Command: name}
			switch e := r.(type) {
			case *gpu.LaunchError:
				err = e
			case *gpu.CancelledError:
				err = e
			default:
				err = fmt.Errorf("flow: engine panic: %v", r)
			}
		}
	}()
	out, t.Command = a, name
	passes := 1
	if c.Passes != nil {
		passes = max(c.Passes(cfg), 1)
	}
	var snap gpu.Stats
	var profSnap []gpu.KernelProfile
	if cfg.Parallel {
		snap, profSnap = d.Stats(), d.Profile()
	}
	start := time.Now()
	for p := 0; p < passes; p++ {
		if cerr := ctx.Err(); cerr != nil {
			return out, t, fmt.Errorf("flow: cancelled after %d of %d passes: %w", p, passes, cerr)
		}
		if cfg.Parallel {
			out = c.Par(d, out, cfg)
		} else {
			out = c.Seq(out, cfg)
		}
	}
	t.Wall = time.Since(start)
	if !cfg.Parallel {
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
