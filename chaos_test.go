package aigre_test

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/gpu"
	"aigre/internal/journal"
	"aigre/internal/sched"
)

// chaosSeed makes the fault schedules reproducible while letting the chaos
// gate in scripts/check.sh sweep fresh schedules (-chaos-seed=$RANDOM).
var chaosSeed = flag.Int64("chaos-seed", 1, "base seed for the chaos fault schedules")

func chaosFleet() []*aigre.Network {
	return []*aigre.Network{
		aigre.FromInternal(bench.Adder(16)),
		aigre.FromInternal(bench.Multiplier(8)),
		aigre.FromInternal(bench.Voter(6)),
		aigre.FromInternal(bench.Square(8)),
		aigre.FromInternal(bench.Log2(8)),
		aigre.FromInternal(bench.Adder(24)),
		aigre.FromInternal(bench.MemCtrl(1)),
		aigre.FromInternal(bench.Multiplier(6)),
	}
}

// TestChaosBatchSupervision is the supervision acceptance criterion: an
// 8-job batch with injected kernel panics (including typed device faults),
// silent corruptions, and one deliberately stuck job must come out with
// every transient casualty retried to success, the stuck job
// watchdog-preempted and quarantined, every surviving output CEC-equivalent
// to a fault-free run, and the journal replaying the full supervision
// history after the run has ended.
func TestChaosBatchSupervision(t *testing.T) {
	const script = "b; rw; rf"
	const stuckIdx = 5
	opts := aigre.Options{Parallel: true}

	// Fault-free baseline: same fleet, same script, no supervision needed.
	fleet := chaosFleet()
	jobs := make([]aigre.Batch, len(fleet))
	for i, n := range fleet {
		jobs[i] = aigre.Batch{AIG: n, Script: script, Options: opts}
	}
	baseline, _, err := aigre.RunBatch(context.Background(), jobs, aigre.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline job %d (%s): %v", i, r.Name, r.Err)
		}
	}

	// Chaos run: every job gets a randomized (but seeded, hence reproducible)
	// fault schedule; job stuckIdx is poisoned with enough stalls to outlast
	// its retry budget.
	for i := range jobs {
		o := opts
		if i == stuckIdx {
			o.FaultPlans = stallSchedule("rewrite/evaluate", 8, 400*time.Millisecond)
		} else {
			o.FaultPlans = chaosSchedule(*chaosSeed*8191+int64(i), 2)
		}
		jobs[i].Options = o
	}
	jpath := filepath.Join(t.TempDir(), "chaos.jsonl")
	results, m, err := aigre.RunBatch(context.Background(), jobs, aigre.BatchOptions{
		Workers:     4,
		JournalPath: jpath,
		Policy: aigre.Policy{
			Retries:      2,
			StuckTimeout: 120 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	retriedOK := 0
	for i, r := range results {
		if i == stuckIdx {
			if !r.Quarantined {
				t.Fatalf("stuck job %s: not quarantined (err=%v)", r.Name, r.Err)
			}
			if !errors.Is(r.Err, sched.ErrStuck) {
				t.Errorf("stuck job %s: err %v, want ErrStuck", r.Name, r.Err)
			}
			if r.Preemptions == 0 {
				t.Errorf("stuck job %s: watchdog never preempted it", r.Name)
			}
			if r.Attempts != 3 {
				t.Errorf("stuck job %s: %d attempts, want 3 (1 + Retries)", r.Name, r.Attempts)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("chaos job %d (%s): %v (attempts=%d)", i, r.Name, r.Err, r.Attempts)
		}
		// A retry that landed clean keeps its attempt-1 incident history but
		// records none on the final attempt.
		clean := true
		for _, inc := range r.Incidents {
			if inc.Attempt == r.Attempts {
				clean = false
			}
		}
		if r.Attempts > 1 && clean {
			retriedOK++
		}
		eq, err := r.AIG.EquivalentTo(baseline[i].AIG)
		if err != nil {
			t.Fatalf("job %d (%s): CEC: %v", i, r.Name, err)
		}
		if !eq {
			t.Errorf("job %d (%s): chaos output not equivalent to fault-free output", i, r.Name)
		}
	}
	if retriedOK == 0 {
		t.Error("no transient job was retried to a clean success")
	}
	if m.Quarantined != 1 {
		t.Errorf("metrics: %d quarantined, want 1", m.Quarantined)
	}
	if m.Finished != len(jobs)-1 {
		t.Errorf("metrics: %d finished, want %d", m.Finished, len(jobs)-1)
	}
	if m.Retries == 0 {
		t.Error("metrics: no retries recorded")
	}

	// The journal must replay the full history now that RunBatch has closed
	// it: a start and a terminal event for every job, preemptions and the
	// quarantine for the stuck job, and strictly increasing sequence numbers.
	f, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, _, err := journal.ReadRecords[aigre.JobEvent](f)
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[string]int{}
	terminal := map[string]string{}
	preempts, retries := 0, 0
	lastSeq := int64(0)
	for i, e := range entries {
		if i > 0 && e.Seq <= lastSeq {
			t.Fatalf("journal entry %d: seq %d not increasing (prev %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Event {
		case sched.EventAttempt:
			attempts[e.Job]++
		case sched.EventPreempt:
			preempts++
		case sched.EventRetry:
			retries++
		case sched.EventDone, sched.EventFail, sched.EventQuarantine, sched.EventCancel:
			terminal[e.Job] = e.Event
		}
	}
	for i, r := range results {
		if attempts[r.Name] != r.Attempts {
			t.Errorf("journal: job %s has %d attempt entries, result says %d", r.Name, attempts[r.Name], r.Attempts)
		}
		want := sched.EventDone
		if i == stuckIdx {
			want = sched.EventQuarantine
		}
		if terminal[r.Name] != want {
			t.Errorf("journal: job %s terminal event %q, want %q", r.Name, terminal[r.Name], want)
		}
	}
	if preempts == 0 {
		t.Error("journal: no preempt events recorded")
	}
	if retries != m.Retries {
		t.Errorf("journal: %d retry events, metrics counted %d", retries, m.Retries)
	}
}

// chaosKernels is the fault-injection vocabulary: kernel-name substrings that
// every script built from the standard commands launches, so a plan aimed at
// any of them is guaranteed a target. Panic-kind plans may hit all of them;
// corrupt-kind plans are pinned to "balance/gather" because that is the
// launch whose lost writes the per-command equivalence gate provably catches
// (silent corruption elsewhere could slip past sampling and poison a run in
// a way no supervisor can classify).
var chaosKernels = []string{
	"rewrite/evaluate",
	"refactor/resynth",
	"balance/insert-pass",
	"balance/gather",
	"dedup/level",
}

// errChaosDeviceFault is the panic value of the chaos plans that model a
// typed device-side failure rather than the generic injected fault.
var errChaosDeviceFault = errors.New("chaos: typed device fault")

// chaosSchedule builds a deterministic pseudo-random fault schedule of n
// plans for chaos tests: each plan targets a random kernel from the standard
// vocabulary and either panics with the generic injected-fault error, panics
// with errChaosDeviceFault (modeling a typed device-side failure), or
// silently corrupts a balance/gather launch. The same seed always yields the
// same schedule, so a chaos run is exactly reproducible.
func chaosSchedule(seed int64, n int) []gpu.FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]gpu.FaultPlan, 0, n)
	for i := 0; i < n; i++ {
		p := gpu.FaultPlan{
			Kernel: chaosKernels[rng.Intn(len(chaosKernels))],
			Nth:    1 + rng.Intn(3),
			Kind:   gpu.FaultPanic,
		}
		switch rng.Intn(3) {
		case 1:
			p.Panic = errChaosDeviceFault
		case 2:
			p.Kernel = "balance/gather"
			p.Kind = gpu.FaultCorrupt
		}
		plans = append(plans, p)
	}
	return plans
}

// stallSchedule builds a poison-job schedule: hits launches of the kernel
// each stall for the given duration, so every supervised attempt of the job
// goes quiet again and the watchdog must preempt it anew. Every plan is
// armed at Nth 1: a launch fires the first unspent plan and leaves the rest
// untouched (injection stops at the firing plan), so the schedule burns one
// plan per stalled launch no matter how attempts slice the launch sequence.
// Sizing hits above the retry budget guarantees the job ends up quarantined.
func stallSchedule(kernel string, hits int, stall time.Duration) []gpu.FaultPlan {
	plans := make([]gpu.FaultPlan, hits)
	for i := range plans {
		plans[i] = gpu.FaultPlan{Kernel: kernel, Nth: 1, Kind: gpu.FaultStall, Stall: stall}
	}
	return plans
}
