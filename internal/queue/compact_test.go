package queue

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aigre/internal/sched"
)

// bigPayload is a payload large enough that dropping it from terminal
// snapshot records visibly shrinks the WAL.
func bigPayload() []byte {
	return bytes.Repeat([]byte("aag 8 8 8 8 8\n"), 512)
}

// TestCompactShrinksAndReplaysEquivalently is the compaction contract: after
// Compact the WAL is smaller (terminal payloads and intermediate records are
// gone), and a replay of the compacted log reconstructs the same queue —
// same states, details, sessions, and exactly-once lease counts.
func TestCompactShrinksAndReplaysEquivalently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"done", "failed", "inflight", "pending"} {
		err := q.Submit(Spec{ID: id, Script: "b; rw", Priority: 1, AIGER: bigPayload()})
		if err != nil {
			t.Fatal(err)
		}
	}
	a := mustLease(t, q)
	if err := q.Resolve(a.ID, Done, "ok", &Session{Record: sched.Record{Attempts: 1, NodesAfter: 7}}); err != nil {
		t.Fatal(err)
	}
	b := mustLease(t, q)
	if err := q.Resolve(b.ID, Failed, "boom", &Session{Record: sched.Record{Attempts: 2}}); err != nil {
		t.Fatal(err)
	}
	c := mustLease(t, q) // will be in flight across the compaction
	_ = c

	before := q.Stats().WALBytes
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	after := q.Stats()
	if after.WALBytes >= before {
		t.Fatalf("WAL grew across compaction: %d -> %d bytes", before, after.WALBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", after.Compactions)
	}
	// The live queue is untouched by compaction.
	if after.Done != 1 || after.Failed != 1 || after.Leased != 1 || after.Pending != 1 {
		t.Fatalf("stats changed across compaction: %+v", after)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	st := q2.Stats()
	if st.Done != 1 || st.Failed != 1 || st.Pending != 2 || st.Recovered != 1 {
		t.Fatalf("replayed stats: %+v", st)
	}
	jd, _ := q2.Get("done")
	if jd.State != Done || jd.Leases != 1 || jd.Detail != "ok" ||
		jd.Session == nil || jd.Session.NodesAfter != 7 {
		t.Fatalf("done job after replay: %+v", jd)
	}
	if jd.Spec.AIGER != nil {
		t.Fatal("terminal job kept its payload across compaction")
	}
	jf, _ := q2.Get("failed")
	if jf.State != Failed || jf.Leases != 1 || jf.Detail != "boom" {
		t.Fatalf("failed job after replay: %+v", jf)
	}
	// Jobs that may still run keep their payloads and their lease history.
	jp, _ := q2.Get("pending")
	if jp.State != Pending || jp.Leases != 0 || !bytes.Equal(jp.Spec.AIGER, bigPayload()) {
		t.Fatalf("pending job after replay: state=%s leases=%d payload=%d bytes",
			jp.State, jp.Leases, len(jp.Spec.AIGER))
	}
	ji, _ := q2.Get(c.ID)
	if ji.State != Pending || ji.Leases != 1 {
		t.Fatalf("in-flight job after replay: state=%s leases=%d (want recovered pending, 1 lease)",
			ji.State, ji.Leases)
	}
}

// TestOpenCompactsRedundantHistory checks restart compaction: reopening a
// WAL that carries per-job history rewrites it as one record per job, and a
// further reopen of the compacted file yields the same queue.
func TestOpenCompactsRedundantHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j1", 0)
	mustSubmit(t, q, "j2", 0)
	spec := mustLease(t, q)
	if err := q.Resolve(spec.ID, Done, "", &Session{Record: sched.Record{Attempts: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, Options{}) // 4 records, 2 jobs: compacts
	if err != nil {
		t.Fatal(err)
	}
	if st := q2.Stats(); st.Compactions != 1 {
		t.Fatalf("open did not compact: %+v", st)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("restart compaction did not shrink the WAL: %d -> %d", grown.Size(), compacted.Size())
	}

	q3, err := Open(path, Options{}) // 2 records, 2 jobs: already minimal
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if st := q3.Stats(); st.Compactions != 0 {
		t.Fatalf("reopen of a compacted WAL compacted again: %+v", st)
	}
	if j, _ := q3.Get("j1"); j.State != Done || j.Leases != 1 {
		t.Fatalf("j1 after double replay: %+v", j)
	}
	if j, _ := q3.Get("j2"); j.State != Pending || j.Leases != 0 {
		t.Fatalf("j2 after double replay: %+v", j)
	}
}

// TestCrashDuringCompactionIgnoresStaleTemp simulates a crash after the
// snapshot temp file was partially written but before the atomic rename: the
// next Open must replay the intact old WAL and discard the temp.
func TestCrashDuringCompactionIgnoresStaleTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j1", 0)
	spec := mustLease(t, q)
	if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j2", 0)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn snapshot, as a crash mid-compaction would leave behind.
	tmp := path + ".compact"
	if err := os.WriteFile(tmp, []byte(`{"seq":99,"id":"j1","state":"pe`), 0o644); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if st := q2.Stats(); st.Done != 1 || st.Pending != 1 {
		t.Fatalf("state after crashed compaction: %+v", st)
	}
	if j, _ := q2.Get("j1"); j.State != Done || j.Leases != 1 {
		t.Fatalf("j1: %+v", j)
	}
	// Open itself compacts (4 records > 2 jobs), which replaces the stale
	// temp; whatever remains at the temp path must not be the torn garbage.
	if data, err := os.ReadFile(tmp); err == nil && bytes.Contains(data, []byte(`"seq":99`)) {
		t.Fatal("stale compaction temp survived reopen")
	}
}

// TestMaybeCompactThreshold checks the live trigger: no compaction while the
// WAL is under the size threshold or while active jobs dominate; compaction
// once both conditions hold.
func TestMaybeCompactThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{CompactBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j1", 0)
	if ran, err := q.MaybeCompact(); err != nil || ran {
		t.Fatalf("compacted under threshold: ran=%v err=%v", ran, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, Options{CompactBytes: 64}) // tiny threshold
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	mustSubmit(t, q2, "j2", 0)
	// Two active, none terminal: size threshold met but nothing to shed.
	if ran, err := q2.MaybeCompact(); err != nil || ran {
		t.Fatalf("compacted with zero terminal jobs: ran=%v err=%v", ran, err)
	}
	for i := 0; i < 2; i++ {
		spec := mustLease(t, q2)
		if err := q2.Resolve(spec.ID, Done, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	ran, err := q2.MaybeCompact()
	if err != nil || !ran {
		t.Fatalf("MaybeCompact with terminal majority over threshold: ran=%v err=%v", ran, err)
	}
	if st := q2.Stats(); st.Done != 2 || st.Compactions != 1 {
		t.Fatalf("after live compaction: %+v", st)
	}
}

// TestObserverSeesReplayAndLiveOnce checks the Observer contract: every
// state-changing record is observed exactly once, in WAL order — replayed
// records during Open, then live appends — and compaction snapshots are not
// re-observed.
func TestObserverSeesReplayAndLiveOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	var seen []Record
	obs := func(r Record) { seen = append(seen, r) }

	q, err := Open(path, Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j1", 0)
	spec := mustLease(t, q)
	if err := q.Resolve(spec.ID, Done, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	states := func() []State {
		out := make([]State, len(seen))
		for i, r := range seen {
			out[i] = r.State
		}
		return out
	}
	if got := states(); len(got) != 3 || got[0] != Pending || got[1] != Leased || got[2] != Done {
		t.Fatalf("live observations: %v", got)
	}

	// Reopen: the observer sees the replayed history once (and Open's
	// compaction, which rewrites the same state, adds nothing).
	seen = nil
	q2, err := Open(path, Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := states(); len(got) != 3 || got[2] != Done {
		t.Fatalf("replayed observations: %v", got)
	}
	if seen[2].ID != "j1" || seen[2].Leases != 0 {
		// Raw history records carry per-transition deltas, not totals.
		t.Fatalf("replayed terminal record: %+v", seen[2])
	}
}
