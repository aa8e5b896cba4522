// Guarded command execution: checkpoint, validate, roll back, degrade.
//
// The paper argues its parallel passes are race-free and equivalence-
// preserving; this layer is what makes the pipeline survive the cases where
// that argument fails in practice — a panicking kernel, a structurally
// corrupt or functionally wrong pass output. Each command runs against an
// immutable checkpoint (pass engines never mutate their input, so the
// checkpoint is a plain reference), its output is screened by the structural
// invariant checker and an equivalence gate, and any failure rolls the AIG
// back and degrades the command instead of killing the run.
package flow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aigre/internal/aig"
	"aigre/internal/cec"
	"aigre/internal/gpu"
)

// Incident records one contained failure during a guarded run.
type Incident struct {
	// Index is the position of the failing command in the parsed script.
	Index int `json:"index"`
	// Command is the script command that failed ("b", "rf", ...).
	Command string `json:"command"`
	// Stage identifies what failed: "launch" (a kernel aborted via
	// *gpu.LaunchError), "panic" (a non-kernel panic in the engine),
	// "invariant" (aig.Check rejected the output), or "equivalence" (the
	// functional gate refuted the output).
	Stage string `json:"stage"`
	// Kernel is the failing kernel's name for launch-stage incidents.
	Kernel string `json:"kernel,omitempty"`
	// Action is what the runner did: "retried-sequential" (rolled back and
	// re-ran on the sequential engine), "skipped" (rolled back and moved
	// on to the next command), or "rolled-back" (a partition's result was
	// discarded after a seam gate refuted the stitch).
	Action string `json:"action"`
	// Detail is a one-line human-readable description of the failure.
	Detail string `json:"detail"`
	// Class is the supervision class of the failure: ClassTransient for
	// faults a fresh attempt can plausibly clear (aborted kernel launches,
	// seam-gate rollbacks), ClassPermanent for faults that will reproduce
	// on retry (invariant violations, equivalence refutations, non-kernel
	// engine panics).
	Class string `json:"class,omitempty"`
	// Attempt is the 1-based attempt of the job that recorded the incident;
	// 0 only for a direct flow.Run, outside the engine that every public
	// entry point runs on.
	Attempt int `json:"attempt,omitempty"`
	// Time is the wall-clock moment the incident was recorded, so journal
	// entries from concurrent jobs order correctly.
	Time time.Time `json:"time"`
}

// Supervision classes of an Incident.
const (
	ClassTransient = "transient"
	ClassPermanent = "permanent"
)

func (inc Incident) String() string {
	s := fmt.Sprintf("command %d (%s): %s failure, %s", inc.Index, inc.Command, inc.Stage, inc.Action)
	if inc.Detail != "" {
		s += ": " + inc.Detail
	}
	return s
}

// gateError marks a validation failure of a structurally intact pass output,
// carrying which gate rejected it.
type gateError struct {
	stage string // "invariant" or "equivalence"
	err   error
}

func (e *gateError) Error() string { return "flow: " + e.stage + " gate: " + e.err.Error() }
func (e *gateError) Unwrap() error { return e.err }

// runGuarded executes one command with checkpoint/rollback semantics and
// returns the resulting AIG (the checkpoint itself when the command was
// skipped), the command timing, and any incidents recorded.
//
// It walks the degrade ladder: in parallel mode the device engines, then (and
// in sequential mode only) the sequential engine, then skip. Each rung is one
// attempt against the checkpoint whose output must pass the gate; a failure is
// recorded as an incident naming the next rung.
//
// Cancellation is not a fault: when an attempt fails and ctx is cancelled
// (the device refuses further kernel launches), the runner does not degrade —
// it returns the checkpoint and an error wrapping ctx.Err() so the caller can
// stop the script.
func runGuarded(ctx context.Context, d *gpu.Device, checkpoint *aig.AIG, cmd string, idx int, cfg Config) (*aig.AIG, CommandTiming, []Incident, error) {
	// Deterministic per-command gate seed, so failures reproduce.
	seed := int64(idx)*7919 + 1
	// Parse validated the name; the zero command of an unknown one fails every
	// rung (its nil engines panic into incidents).
	c := commands[cmd]
	var failed CommandTiming // of the first failed attempt
	var incs []Incident
	for parallel := cfg.Parallel; ; parallel = false {
		cfg.Parallel = parallel
		out, t, err := execute(ctx, d, checkpoint, cmd, c, cfg)
		if err == nil {
			err = EquivGate(checkpoint, out, cfg.Verify, GateRounds, seed)
		}
		if err == nil {
			// A failed attempt's wall time is part of this command's cost; its
			// modeled time is not (the launch was aborted, not completed).
			t.Wall += failed.Wall
			return out, t, incs, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return checkpoint, t, nil, fmt.Errorf("flow: command %d (%s) cancelled: %w", idx, cmd, cerr)
		}
		if incs == nil {
			failed = t
		}
		if !parallel {
			return checkpoint, failed, append(incs, newIncident(idx, cmd, err, "skipped")), nil
		}
		incs = append(incs, newIncident(idx, cmd, err, "retried-sequential"))
	}
}

// EquivGate is the guarded runner's validation gate, exported for the
// partition stitcher, which re-runs the same gate across partition seams:
// structural invariants first (always), then the functional equivalence gate
// — sampling with the given number of rounds by default, a full equivalence
// check when verify is set.
func EquivGate(before, after *aig.AIG, verify bool, rounds int, seed int64) error {
	if err := aig.Check(after); err != nil {
		return &gateError{stage: "invariant", err: err}
	}
	if verify {
		res, err := cec.Check(before, after, cec.Options{Seed: seed})
		if err != nil {
			return &gateError{stage: "equivalence", err: err}
		}
		if !res.Equivalent {
			return &gateError{stage: "equivalence",
				err: fmt.Errorf("output differs from input on PO %d (%s)", res.FailingOutput, res.Method)}
		}
		return nil
	}
	if res, refuted := cec.SampleRefute(before, after, rounds, seed); refuted {
		return &gateError{stage: "equivalence",
			err: fmt.Errorf("output differs from input on PO %d (%s)", res.FailingOutput, res.Method)}
	}
	return nil
}

// newIncident classifies an attempt or gate error into an incident record.
func newIncident(idx int, cmd string, err error, action string) Incident {
	inc := Incident{Index: idx, Command: cmd, Action: action, Detail: err.Error(), Time: time.Now()}
	var le *gpu.LaunchError
	var ge *gateError
	switch {
	case errors.As(err, &le):
		// Aborted launches (kernel panics) are faults a fresh attempt can
		// plausibly clear.
		inc.Stage = "launch"
		inc.Kernel = le.Kernel
		inc.Class = ClassTransient
	case errors.As(err, &ge):
		// A gate refutation means the pass produced wrong output from this
		// input; rerunning the same pass will reproduce it.
		inc.Stage = ge.stage
		inc.Class = ClassPermanent
	default:
		inc.Stage = "panic"
		inc.Class = ClassPermanent
	}
	return inc
}
