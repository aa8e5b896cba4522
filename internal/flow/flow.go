// Package flow runs optimization command sequences ("scripts") over AIGs,
// in either the sequential ABC-style mode or the paper's GPU-parallel mode,
// and records the per-command runtime breakdown used by Figure 8.
//
// The command vocabulary matches the paper: b (AND-balancing), rw / rwz
// (rewriting, z = accept zero gain), rf / rfz (refactoring), plus rs
// (resubstitution) and dedup (the cleanup pass alone; aig.Rehash is its
// sequential engine). In parallel mode rf and rfz are identical, because the
// parallel gain is a lower bound and zero-gain replacements are always
// accepted (Section III-D), and the device rwz runs two rewriting passes (the
// paper's GPU resyn2 setting). Every engine hands back a clean network, free
// of structural duplicates and dangling nodes: rw, rwz and rs replace through
// a strash-aware in-place editor, and the parallel replacement of rf and rfz
// runs the de-duplication and dangling-node pass (Section III-F) itself, so
// no cleanup follows a command; its kernels ("dedup/") sit in the command's
// profile, where Breakdown files them under "dedup" (Section V-B). A single
// algorithm is a one-command script, and the script is the whole program: no
// option repeats or rewrites a command, so the paper's "GPU rf (x2)" is the
// script "rf; rf".
package flow

import (
	"context"
	"errors"
	"fmt"
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

// Config selects the execution mode and how a run is checked and cached;
// what runs is the script's alone (the engines use their default settings,
// among them the paper's refactoring cut limit of 12).
type Config struct {
	// Parallel selects the GPU-parallel algorithms; otherwise the
	// sequential ABC-style baselines run.
	Parallel bool
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
	if c.Cache == nil {
		c.Cache = rcache.Default
	}
	return c
}

// CommandTiming is the per-command record behind Figure 8, and a row of the
// "commands" array of cmd/aigre -profile-json. Wall and Modeled cover the
// command's passes.
type CommandTiming struct {
	Command     string        `json:"command"`
	Wall        time.Duration `json:"wall_ns"`
	Modeled     time.Duration `json:"modeled_ns"` // device-modeled time (parallel mode only)
	NodesAfter  int           `json:"nodes_after"`
	LevelsAfter int           `json:"levels_after"`
	// Kernels is the per-kernel device profile of this command (the
	// Section III-F kernels of a parallel replacement carry "dedup/" names).
	// Parallel mode only; the modeled times sum to Modeled.
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
	// ParPasses is the number of device passes of one script command (0 = 1);
	// the sequential engine always runs one.
	ParPasses int
}

var commands = map[string]command{
	"b": {Kind: "b", ParPasses: 1,
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { out, _ := balance.Sequential(a); return out },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := balance.Parallel(d, a); return out }},
	"rw":  rewriteCommand(false),
	"rwz": rewriteCommand(true),
	"rf":  refactorCommand(false),
	"rfz": refactorCommand(true),
	"rs": {Kind: "rs", ParPasses: 1,
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { out, _ := resub.Sequential(a); return out },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := resub.Parallel(d, a); return out }},
	// The cleanup pass as a command of its own; a full rehash is its
	// sequential reference.
	"dedup": {Kind: "dedup", ParPasses: 1,
		Seq: func(a *aig.AIG, _ Config) *aig.AIG { return a.Rehash() },
		Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG { out, _ := dedup.Run(d, a); return out }},
}

// rewriteCommand builds rw (zero = false) and rwz. The device rwz runs two
// [9] passes, the paper's GPU resyn2 setting.
func rewriteCommand(zero bool) command {
	passes := 1
	if zero {
		passes = 2
	}
	return command{Kind: "rw", ParPasses: passes,
		Seq: func(a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Sequential(a, rewrite.Options{ZeroGain: zero, Cache: cfg.Cache})
			return out
		},
		Par: func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := rewrite.Parallel(d, a, rewrite.Options{ZeroGain: zero, Cache: cfg.Cache})
			return out
		}}
}

// refactorCommand builds rf (zero = false) and rfz. The parallel engine
// always accepts zero gain (Section III-D), so the two differ only on the
// sequential engine.
func refactorCommand(zero bool) command {
	return command{Kind: "rf", ParPasses: 1,
		Seq: func(a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := refactor.Sequential(a, refactor.Options{ZeroGain: zero, Cache: cfg.Cache})
			return out
		},
		Par: func(d *gpu.Device, a *aig.AIG, cfg Config) *aig.AIG {
			out, _ := refactor.Parallel(d, a, refactor.Options{Cache: cfg.Cache})
			return out
		}}
}

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
		res.Modeled += t.Modeled
	}
	res.Wall = time.Since(start)
	res.CacheStats = cfg.Cache.Snapshot().Sub(cacheBefore)
	if d != nil {
		res.Profile = d.Profile()
	}
	return res, err
}

// execute is the one place a command turns into engine calls: one run of its
// sequential engine or c.ParPasses runs of its device engine on d
// (cfg.Parallel selects), ctx checked between them, and the timing record (for
// a device run the modeled time and the per-kernel profile are deltas of the
// device's accounting). An engine panic comes back as an error — a *gpu.LaunchError
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
	var snap gpu.Stats
	var profSnap []gpu.KernelProfile
	if cfg.Parallel {
		passes = max(c.ParPasses, 1)
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
	t.Modeled = d.Stats().Sub(snap).ModeledTime
	t.Kernels = gpu.DiffProfile(d.Profile(), profSnap)
	return out, t, nil
}

// Breakdown aggregates timings by command kind (b, rw, rf, dedup), the
// Figure 8 data series. A command's "dedup/" kernel rows, the Section III-F
// pass of a parallel replacement, are filed under "dedup" and the rest of its
// time under its kind.
func Breakdown(timings []CommandTiming) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range timings {
		dd := dedupShare(t.Kernels).Modeled
		out[commands[t.Command].Kind] += t.Modeled - dd
		out["dedup"] += dd
	}
	return out
}

// BreakdownWall is Breakdown over wall-clock times; the "dedup" series is
// the wall time of the dedup kernels' launches.
func BreakdownWall(timings []CommandTiming) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range timings {
		dd := dedupShare(t.Kernels).Wall
		out[commands[t.Command].Kind] += t.Wall - dd
		out["dedup"] += dd
	}
	return out
}

// dedupShare totals a command's "dedup/" kernel rows.
func dedupShare(rows []gpu.KernelProfile) gpu.KernelProfile {
	var dd []gpu.KernelProfile
	for _, k := range rows {
		if strings.HasPrefix(k.Kernel, "dedup/") {
			dd = append(dd, k)
		}
	}
	return gpu.TotalProfile(dd)
}
