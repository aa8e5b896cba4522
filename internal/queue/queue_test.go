package queue

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/sched"
)

func mustSubmit(t *testing.T, q *Queue, id string, priority int) {
	t.Helper()
	err := q.Submit(Spec{ID: id, Script: "b; rw", Priority: priority, AIGER: []byte("aag 0 0 0 0 0\n")})
	if err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
}

func mustLease(t *testing.T, q *Queue) Spec {
	t.Helper()
	spec, err := q.Lease()
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if spec == nil {
		t.Fatal("lease: queue empty")
	}
	return *spec
}

// TestSubmitLeaseResolveRoundTrip walks one job through its life and checks
// the queue state at each step.
func TestSubmitLeaseResolveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "j1", 0)
	if j, ok := q.Get("j1"); !ok || j.State != Pending {
		t.Fatalf("after submit: %+v ok=%v", j, ok)
	}
	spec := mustLease(t, q)
	if spec.ID != "j1" {
		t.Fatalf("leased %q, want j1", spec.ID)
	}
	if j, _ := q.Get("j1"); j.State != Leased || j.Leases != 1 {
		t.Fatalf("after lease: %+v", j)
	}
	sess := &Session{Record: sched.Record{Attempts: 1, NodesBefore: 10, NodesAfter: 8,
		Record: flow.Record{Incidents: []flow.Incident{{Command: "rw", Stage: "launch", Class: flow.ClassTransient}}}}}
	if err := q.Resolve("j1", Done, "", sess); err != nil {
		t.Fatal(err)
	}
	j, _ := q.Get("j1")
	if j.State != Done || j.Session == nil || j.Session.NodesAfter != 8 || len(j.Session.Incidents) != 1 {
		t.Fatalf("after resolve: %+v session=%+v", j, j.Session)
	}
	if spec, err := q.Lease(); err != nil || spec != nil {
		t.Fatalf("lease of empty queue: %v, %v", spec, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityAndFIFOOrder checks lease order: priority descending,
// submission order within a priority.
func TestPriorityAndFIFOOrder(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "wal.jsonl"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "low1", 0)
	mustSubmit(t, q, "high", 5)
	mustSubmit(t, q, "low2", 0)
	want := []string{"high", "low1", "low2"}
	for _, w := range want {
		if got := mustLease(t, q); got.ID != w {
			t.Fatalf("lease order: got %s, want %s", got.ID, w)
		}
	}
}

// TestReplayReconstructsQueue kills the queue (by just dropping it) at every
// interesting point and checks the replayed state: pending jobs stay
// pending, in-flight leases are checkpointed back to pending exactly once,
// and terminal jobs never come back.
func TestReplayReconstructsQueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "done", 0)
	mustSubmit(t, q, "inflight", 0)
	mustSubmit(t, q, "waiting", 0)
	mustSubmit(t, q, "poison", 0)
	if got := mustLease(t, q); got.ID != "done" {
		t.Fatalf("leased %s", got.ID)
	}
	if err := q.Resolve("done", Done, "", &Session{Record: sched.Record{Attempts: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := mustLease(t, q); got.ID != "inflight" {
		t.Fatalf("leased %s", got.ID)
	}
	// "poison" was quarantined in a previous life.
	q2spec := mustLease(t, q) // waiting
	if q2spec.ID != "waiting" {
		t.Fatalf("leased %s", q2spec.ID)
	}
	if err := q.Requeue("waiting", "drain checkpoint"); err != nil {
		t.Fatal(err)
	}
	// A requeued job goes behind jobs already waiting at its priority:
	// poison (still in line) leases before the requeued waiting.
	if got := mustLease(t, q); got.ID != "poison" {
		t.Fatalf("leased %s, want poison", got.ID)
	}
	if got := mustLease(t, q); got.ID != "waiting" {
		t.Fatalf("re-leased %s, want waiting", got.ID)
	}
	if err := q.Resolve("waiting", Done, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve("poison", Quarantined, "stuck", &Session{Record: sched.Record{Attempts: 3, Preemptions: 3}}); err != nil {
		t.Fatal(err)
	}
	q.Close() // "crash" with inflight still leased

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1 (stats %+v)", st.Recovered, st)
	}
	if st.Pending != 1 || st.Leased != 0 || st.Done != 2 || st.Quarantined != 1 {
		t.Fatalf("stats after replay: %+v", st)
	}
	if j, _ := r.Get("inflight"); j.State != Pending || j.Leases != 1 {
		t.Fatalf("inflight after replay: %+v", j)
	}
	if j, _ := r.Get("done"); j.State != Done || j.Leases != 1 || j.Session == nil {
		t.Fatalf("done after replay: %+v", j)
	}
	if j, _ := r.Get("poison"); j.State != Quarantined || j.Session == nil || j.Session.Preemptions != 3 {
		t.Fatalf("poison after replay: %+v session=%+v", j, j.Session)
	}
	// The only leasable job is the recovered one — terminal jobs never
	// re-run.
	if got := mustLease(t, r); got.ID != "inflight" {
		t.Fatalf("post-replay lease: %s, want inflight", got.ID)
	}
	if spec, err := r.Lease(); err != nil || spec != nil {
		t.Fatalf("second post-replay lease: %v, %v", spec, err)
	}
}

// TestSaturation checks MaxDepth admission control: the bound counts active
// (pending + leased) jobs and frees up as jobs resolve.
func TestSaturation(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "wal.jsonl"), Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "a", 0)
	mustSubmit(t, q, "b", 0)
	if err := q.Submit(Spec{ID: "c", Script: "b", AIGER: []byte("x")}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit over depth: %v, want ErrSaturated", err)
	}
	mustLease(t, q)
	// Leased still counts against depth.
	if err := q.Submit(Spec{ID: "c", Script: "b", AIGER: []byte("x")}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit with leased at depth: %v, want ErrSaturated", err)
	}
	if err := q.Resolve("a", Done, "", nil); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "c", 0)
}

// TestTornWALRecordsTolerated corrupts the WAL mid-file and at the tail and
// checks recovery still works, with the damage counted.
func TestTornWALRecordsTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "a", 0)
	mustSubmit(t, q, "b", 0)
	mustLease(t, q)
	q.Resolve("a", Done, "", nil)
	q.Close()

	// Corrupt: insert a torn line in the middle, truncate the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) < 4 {
		t.Fatalf("want >= 4 WAL lines, got %d", len(lines))
	}
	var rebuilt []byte
	rebuilt = append(rebuilt, lines[0]...)
	rebuilt = append(rebuilt, '\n')
	rebuilt = append(rebuilt, []byte(`{"seq":99,"id":"torn","sta`+"\n")...) // torn mid-file
	for _, l := range lines[1:] {
		rebuilt = append(rebuilt, l...)
		rebuilt = append(rebuilt, '\n')
	}
	rebuilt = append(rebuilt, []byte(`{"seq":100,"id":"b","state":"lea`)...) // torn tail
	if err := os.WriteFile(path, rebuilt, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Torn != 2 {
		t.Fatalf("torn = %d, want 2 (stats %+v)", st.Torn, st)
	}
	if st.Done != 1 || st.Pending != 1 {
		t.Fatalf("stats after torn replay: %+v", st)
	}
}

// TestLargeSpecReplays submits a spec whose WAL line (the payload
// base64-encoded) is several MiB long, tears a second line of that size at
// the tail, and checks that the queue reopens with the job and its payload
// intact, before and after a compaction rewrites the line.
func TestLargeSpecReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("aag 1 1 0 1 0\n2\n2\n"), 7<<19/18) // 3.5 MiB
	if err := q.Submit(Spec{ID: "big", Script: "b", AIGER: payload}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, data[:len(data)/2]...) // a second big line, torn mid-append
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, compact := range []bool{false, true} {
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen (compacted=%v): %v", compact, err)
		}
		j, ok := r.Get("big")
		if !ok || j.State != Pending || !bytes.Equal(j.Spec.AIGER, payload) {
			t.Fatalf("compacted=%v: job %q ok=%v state %s, %d payload bytes, want %d",
				compact, j.Spec.ID, ok, j.State, len(j.Spec.AIGER), len(payload))
		}
		if compact {
			if st := r.Stats(); st.Torn != 0 {
				t.Errorf("compacted WAL replayed %d torn lines", st.Torn)
			}
		} else if st := r.Stats(); st.Torn != 1 {
			t.Errorf("torn = %d, want 1", st.Torn)
		}
		r.Close()
	}
}

// TestSubmitAfterCloseFails checks that a closed queue refuses work instead
// of acknowledging a submission its WAL never received.
func TestSubmitAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "a", 0)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(Spec{ID: "b", Script: "b", AIGER: []byte("aag 0 0 0 0 0\n")}); err == nil {
		t.Fatal("Submit after Close returned nil")
	}
	if _, ok := q.Get("b"); ok {
		t.Error("a refused submission is held in memory")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Errorf("WAL changed after Close: %d -> %d bytes", len(before), len(after))
	}
}

// TestSessionHoldsNoNetwork checks the stored record's type: a Session is
// plain values all the way down — no pointer, interface (an error), map,
// func or chan, and no per-command timings — so a terminal job kept in the
// queue cannot keep an optimized network or anything else of its run alive.
func TestSessionHoldsNoNetwork(t *testing.T) {
	timeType := reflect.TypeOf(time.Time{}) // its *Location is a shared zone
	timingType := reflect.TypeOf(flow.CommandTiming{})
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch {
		case typ == timeType:
		case typ == timingType:
			t.Errorf("%s holds per-command timings", path)
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array:
			walk(path+"[]", typ.Elem())
		case typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Interface || typ.Kind() == reflect.Map ||
			typ.Kind() == reflect.Func || typ.Kind() == reflect.Chan || typ.Kind() == reflect.UnsafePointer:
			t.Errorf("%s is a %s (%s)", path, typ.Kind(), typ)
		}
	}
	walk("Session", reflect.TypeOf(Session{}))
}

// TestResolveGuards checks the state machine rejects transitions that would
// mean a runner finished a job it never held.
func TestResolveGuards(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "wal.jsonl"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "a", 0)
	if err := q.Resolve("a", Done, "", nil); err == nil {
		t.Fatal("resolve of pending job did not error")
	}
	if err := q.Resolve("nope", Done, "", nil); err == nil {
		t.Fatal("resolve of unknown job did not error")
	}
	if err := q.Requeue("a", ""); err == nil {
		t.Fatal("requeue of pending job did not error")
	}
	mustLease(t, q)
	if err := q.Resolve("a", Leased, "", nil); err == nil {
		t.Fatal("resolve to non-terminal state did not error")
	}
	if err := q.Resolve("a", Done, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve("a", Done, "", nil); err == nil {
		t.Fatal("double resolve did not error")
	}
	if err := q.Submit(Spec{ID: "a", Script: "b", AIGER: []byte("x")}); err == nil {
		t.Fatal("duplicate submit did not error")
	}
}

// TestConcurrentSubmitLeaseResolve hammers the queue from many goroutines
// under -race and checks every job ends in exactly one terminal state.
func TestConcurrentSubmitLeaseResolve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const submitters, per = 4, 25
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("s%d-%d", s, i)
				if err := q.Submit(Spec{ID: id, Script: "b", AIGER: []byte("x"), Priority: i % 3}); err != nil {
					t.Errorf("submit %s: %v", id, err)
				}
			}
		}(s)
	}
	var rg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			idle := 0
			for idle < 50 {
				spec, err := q.Lease()
				if err != nil {
					t.Errorf("lease: %v", err)
					return
				}
				if spec == nil {
					idle++
					time.Sleep(time.Millisecond)
					continue
				}
				idle = 0
				if err := q.Resolve(spec.ID, Done, "", &Session{Record: sched.Record{Attempts: 1}}); err != nil {
					t.Errorf("resolve %s: %v", spec.ID, err)
				}
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	st := q.Stats()
	if st.Done != submitters*per || st.Active() != 0 {
		t.Fatalf("stats: %+v, want %d done", st, submitters*per)
	}
	q.Close()

	// Replay and cross-check: one terminal record per job, one lease each.
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rst := r.Stats(); rst.Done != submitters*per || rst.Recovered != 0 {
		t.Fatalf("replayed stats: %+v", rst)
	}
	for _, j := range r.Jobs() {
		if j.Leases != 1 {
			t.Fatalf("job %s: %d leases, want 1", j.Spec.ID, j.Leases)
		}
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, b[start:i])
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, b[start:])
	}
	return out
}
