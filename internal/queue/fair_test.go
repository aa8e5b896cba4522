package queue

import (
	"fmt"
	"path/filepath"
	"testing"
)

func submitFor(t *testing.T, q *Queue, client string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := q.Submit(Spec{ID: fmt.Sprintf("%s-%d", client, i), Script: "b; rw",
			Client: client, AIGER: []byte("aag 0 0 0 0 0\n")})
		if err != nil {
			t.Fatalf("submit %s-%d: %v", client, i, err)
		}
	}
}

// TestWeightedFairLeasing is the fairness property test: with clients
// weighted 1:3, both saturated, lease grants converge to a ~1:3 split —
// not a global FIFO, not starvation of the light client.
func TestWeightedFairLeasing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{Weights: map[string]int{"alice": 1, "bob": 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitFor(t, q, "alice", 20)
	submitFor(t, q, "bob", 20)

	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		spec := mustLease(t, q)
		counts[spec.Client]++
		// Resolve immediately so in-flight caps never interfere: this test
		// isolates the weighted share.
		if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if counts["alice"] < 4 || counts["alice"] > 6 {
		t.Errorf("alice (weight 1) leased %d of 20, want ~5", counts["alice"])
	}
	if counts["bob"] < 14 || counts["bob"] > 16 {
		t.Errorf("bob (weight 3) leased %d of 20, want ~15", counts["bob"])
	}
}

// TestInflightCapMakesClientIneligible checks the per-client concurrency
// cap: a capped client never holds more than its cap, however high its
// weight, and other clients lease past it while it is pinned.
func TestInflightCapMakesClientIneligible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{
		Weights:     map[string]int{"capped": 100},
		MaxInflight: map[string]int{"capped": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitFor(t, q, "capped", 5)
	submitFor(t, q, "other", 5)

	first := mustLease(t, q) // weight 100: capped goes first
	if first.Client != "capped" {
		t.Fatalf("first lease went to %q, want capped", first.Client)
	}
	// Capped is now at its cap: every further lease must be other's, and
	// once other is drained the queue reports empty despite capped having
	// pending jobs.
	for i := 0; i < 5; i++ {
		spec := mustLease(t, q)
		if spec.Client != "other" {
			t.Fatalf("lease %d went to %q while capped at max inflight", i, spec.Client)
		}
	}
	if spec, err := q.Lease(); err != nil || spec != nil {
		t.Fatalf("lease with all eligible work done: %v, %v (want nil, nil)", spec, err)
	}
	// Releasing the capped job makes the client eligible again.
	if err := q.Resolve(first.ID, Done, "", nil); err != nil {
		t.Fatal(err)
	}
	if spec := mustLease(t, q); spec.Client != "capped" {
		t.Fatalf("post-release lease went to %q, want capped", spec.Client)
	}
}

// TestStarEntryIsTheDefault checks the "*" entries of Weights and
// MaxInflight: they apply to every client the table does not list, and a
// listed client keeps its own entry.
func TestStarEntryIsTheDefault(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "wal.jsonl"), Options{Weights: map[string]int{"*": 3, "bob": 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitFor(t, q, "alice", 20)
	submitFor(t, q, "bob", 20)
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		spec := mustLease(t, q)
		counts[spec.Client]++
		if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if counts["alice"] < 14 || counts["alice"] > 16 {
		t.Errorf("alice (unlisted, \"*\" weight 3) leased %d of 20, want ~15", counts["alice"])
	}

	q2, err := Open(filepath.Join(t.TempDir(), "wal.jsonl"), Options{MaxInflight: map[string]int{"*": 1, "free": 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	submitFor(t, q2, "capped", 3)
	submitFor(t, q2, "free", 3)
	counts = map[string]int{}
	for spec, err := q2.Lease(); spec != nil; spec, err = q2.Lease() {
		if err != nil {
			t.Fatal(err)
		}
		counts[spec.Client]++
	}
	if counts["capped"] != 1 || counts["free"] != 3 {
		t.Errorf("leased %v without resolving, want capped (unlisted, \"*\" cap 1) 1 and free (listed 0 = unlimited) 3", counts)
	}
}

// TestIdleClientDoesNotBankCredit checks the stride alignment rule: a
// client that was idle while another worked joins at the current virtual
// time — it does not get a catch-up burst for the leases it never asked
// for, it just shares fairly from now on.
func TestIdleClientDoesNotBankCredit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitFor(t, q, "busy", 10)
	for i := 0; i < 6; i++ { // busy works alone for a while
		spec := mustLease(t, q)
		if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	submitFor(t, q, "late", 6)
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		spec := mustLease(t, q)
		counts[spec.Client]++
		if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Equal weights from here on: roughly half each, not a late-client
	// monopoly repaying its idle time.
	if counts["late"] < 3 || counts["late"] > 5 {
		t.Errorf("late client leased %d of 8 after joining, want ~4 (no banked credit)", counts["late"])
	}
}

// TestFairnessSurvivesReplay checks that per-client accounting rebuilds
// from the WAL: in-flight counts (for caps) and pending ownership survive a
// reopen, so a restarted daemon keeps honoring caps and shares.
func TestFairnessSurvivesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{MaxInflight: map[string]int{"capped": 1}})
	if err != nil {
		t.Fatal(err)
	}
	submitFor(t, q, "capped", 3)
	spec := mustLease(t, q)
	if spec.Client != "capped" {
		t.Fatalf("lease went to %q", spec.Client)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the abandoned lease is checkpointed back to pending, so the
	// client is under its cap again and leases exactly one job at a time.
	q2, err := Open(path, Options{MaxInflight: map[string]int{"capped": 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if st := q2.Stats(); st.Recovered != 1 || st.Pending != 3 {
		t.Fatalf("after reopen: %+v", st)
	}
	if spec := mustLease(t, q2); spec.Client != "capped" {
		t.Fatalf("lease went to %q", spec.Client)
	}
	if spec, err := q2.Lease(); err != nil || spec != nil {
		t.Fatalf("cap not enforced after replay: %v, %v", spec, err)
	}
}
