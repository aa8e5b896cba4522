package gpu

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// LaunchError reports a kernel launch that was aborted because one of its
// logical threads panicked. The panic is recovered on the worker goroutine,
// the remaining threads of the launch are cancelled, and the error surfaces
// on the orchestration goroutine through TryLaunch (or, for the infallible
// Launch wrappers, as a re-panic carrying this typed value so that a guarded
// caller can recover it without losing the process).
type LaunchError struct {
	Kernel string // kernel name passed to Launch
	Tid    int    // logical thread id whose kernel panicked
	Value  any    // the recovered panic value
	Stack  []byte // stack trace of the panicking thread
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("gpu: kernel %q: thread %d panicked: %v", e.Kernel, e.Tid, e.Value)
}

// Unwrap exposes a panic value that is itself an error (for example
// hashtable.ErrTableFull) to errors.Is / errors.As chains.
func (e *LaunchError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ErrInjectedFault is the panic value used by FaultPanic injections, so
// tests can assert that a recovered incident traces back to the injector.
var ErrInjectedFault = errors.New("gpu: injected fault")

// FaultKind selects what a FaultPlan does to its target launch.
type FaultKind int

const (
	// FaultPanic makes thread 0 of the target launch panic with
	// ErrInjectedFault (or the plan's Panic value, when set), exercising
	// the panic-containment path.
	FaultPanic FaultKind = iota + 1
	// FaultCorrupt silently skips the last thread of the target launch —
	// its writes never happen — modeling a lost or corrupted thread. The
	// launch itself succeeds; downstream invariant and equivalence gates
	// are expected to catch the damage.
	FaultCorrupt
	// FaultStall makes thread 0 of the target launch sleep for the plan's
	// Stall duration (default 250ms) before running, modeling a stuck
	// kernel: the launch eventually completes and the worker is released,
	// but once the other threads' chunks drain no launch boundary or chunk
	// is reached while the stall lasts, so a watchdog polling the device
	// Heartbeat sees the job go quiet and can preempt it (the next launch
	// then refuses with a *CancelledError).
	FaultStall
)

// FaultPlan deterministically injects one fault into the Nth kernel launch
// whose name contains Kernel (substring match). Nth is 1-based; 0 means the
// first match. Each plan fires at most once. Fault injection is a test
// facility: plans are installed with Device.InjectFaults and evaluated on
// the single orchestration goroutine, so the trigger point is exactly
// reproducible across runs and worker counts.
type FaultPlan struct {
	Kernel string
	Nth    int
	Kind   FaultKind
	// Panic, when non-nil, replaces ErrInjectedFault as the panic value of a
	// FaultPanic plan. Chaos tests use it to simulate typed kernel failures
	// (e.g. hashtable.ErrTableFull) without reaching into the engines.
	Panic error
	// Stall is the sleep duration of a FaultStall plan (0 = 250ms).
	Stall time.Duration

	seen int // launches matched so far (internal)
}

// ParseFaultPlan parses the "kernel-pattern:N:kind" fault spec of cmd/aigre's
// -inject flag and aigred's submission "inject" field: fire kind (panic,
// corrupt, or stall) on the Nth (>= 1) launch whose name contains the pattern.
func ParseFaultPlan(s string) (FaultPlan, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return FaultPlan{}, fmt.Errorf("bad inject %q, want \"kernel-pattern:N:panic|corrupt|stall\"", s)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return FaultPlan{}, fmt.Errorf("bad inject launch ordinal %q (want >= 1)", parts[1])
	}
	kind, ok := map[string]FaultKind{"panic": FaultPanic, "corrupt": FaultCorrupt, "stall": FaultStall}[parts[2]]
	if !ok {
		return FaultPlan{}, fmt.Errorf("bad inject kind %q (want panic, corrupt, or stall)", parts[2])
	}
	return FaultPlan{Kernel: parts[0], Nth: n, Kind: kind}, nil
}

// InjectFaults installs fault plans on the device, replacing any previous
// plans. Pass no arguments to clear.
func (d *Device) InjectFaults(plans ...FaultPlan) {
	d.faults = append([]FaultPlan(nil), plans...)
}

// Faults returns a copy of the installed plans, including their internal
// fire-progress, so a supervisor can carry not-yet-fired plans across job
// attempts: snapshot the device before a retry and re-inject into the fresh
// lease, and a plan armed for the Nth matching launch keeps counting from
// where the failed attempt left off.
func (d *Device) Faults() []FaultPlan {
	return append([]FaultPlan(nil), d.faults...)
}

// FaultsArmed reports how many installed plans have not fired yet.
func (d *Device) FaultsArmed() int {
	n := 0
	for i := range d.faults {
		nth := d.faults[i].Nth
		if nth == 0 {
			nth = 1
		}
		if d.faults[i].seen < nth {
			n++
		}
	}
	return n
}

// applyFault checks the installed plans against a launch about to run and,
// when one fires, wraps the kernel accordingly. Called on the orchestration
// goroutine only.
func (d *Device) applyFault(name string, n int, kernel func(slot, tid int) int64) func(slot, tid int) int64 {
	for i := range d.faults {
		p := &d.faults[i]
		if p.Kind == 0 || !strings.Contains(name, p.Kernel) {
			continue
		}
		nth := p.Nth
		if nth == 0 {
			nth = 1
		}
		if p.seen >= nth {
			continue // already fired
		}
		p.seen++
		if p.seen != nth {
			continue
		}
		inner := kernel
		switch p.Kind {
		case FaultPanic:
			val := p.Panic
			return func(slot, tid int) int64 {
				if tid == 0 {
					if val != nil {
						panic(val)
					}
					panic(fmt.Errorf("%w: kernel %q", ErrInjectedFault, name))
				}
				return inner(slot, tid)
			}
		case FaultStall:
			stall := p.Stall
			if stall <= 0 {
				stall = 250 * time.Millisecond
			}
			return func(slot, tid int) int64 {
				if tid == 0 {
					time.Sleep(stall)
				}
				return inner(slot, tid)
			}
		case FaultCorrupt:
			last := n - 1
			return func(slot, tid int) int64 {
				if tid == last {
					return 1 // the thread's writes are lost
				}
				return inner(slot, tid)
			}
		}
	}
	return kernel
}
