package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aigre/internal/flow"
)

// TestAppendReplayRoundTrip checks that entries written to a file replay in
// order with sequence numbers, timestamps, and embedded incidents intact.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	inc := &flow.Incident{Index: 2, Command: "rw", Stage: "launch",
		Kernel: "rewrite/evaluate", Action: "retried-sequential",
		Class: flow.ClassTransient, Attempt: 1, Time: time.Now()}
	events := []Entry{
		{Job: "a", Attempt: 1, Event: EventAttempt},
		{Job: "a", Attempt: 1, Event: EventIncident, Class: flow.ClassTransient, Incident: inc},
		{Job: "a", Attempt: 1, Event: EventRetry, Backoff: 5 * time.Millisecond},
		{Job: "a", Attempt: 2, Event: EventDone},
	}
	for _, e := range events {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, torn, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn = %d on a clean journal", torn)
	}
	if len(got) != len(events) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(events))
	}
	for i, e := range got {
		if e.Seq != int64(i+1) {
			t.Errorf("entry %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Time.IsZero() {
			t.Errorf("entry %d: zero timestamp", i)
		}
		if e.Event != events[i].Event || e.Job != events[i].Job || e.Attempt != events[i].Attempt {
			t.Errorf("entry %d: %+v does not match appended %+v", i, e, events[i])
		}
	}
	if got[1].Incident == nil || got[1].Incident.Kernel != "rewrite/evaluate" ||
		got[1].Incident.Class != flow.ClassTransient || got[1].Incident.Attempt != 1 {
		t.Errorf("incident did not round-trip: %+v", got[1].Incident)
	}
	if got[2].Backoff != 5*time.Millisecond {
		t.Errorf("backoff did not round-trip: %v", got[2].Backoff)
	}
}

// TestNilJournalIsNoOp checks that a nil journal silently discards appends,
// so call sites never guard against an unconfigured journal.
func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if err := j.Append(Entry{Job: "x", Event: EventDone}); err != nil {
		t.Fatalf("nil journal Append: %v", err)
	}
	if err := j.AppendRecord(struct{ X int }{1}); err != nil {
		t.Fatalf("nil journal AppendRecord: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil journal Close: %v", err)
	}
	var zero Journal
	if err := zero.Append(Entry{Job: "x", Event: EventDone}); err != nil {
		t.Fatalf("zero journal Append: %v", err)
	}
}

// TestTruncatedTailTolerated checks that a torn final line — a process killed
// mid-append — is skipped (and counted) on replay while full lines before it
// survive.
func TestTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Job: "a", Attempt: i + 1, Event: EventAttempt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"time":"2026-01-01T00:00:00Z","job":"a","ev`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, torn, err := Replay(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(got))
	}
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
}

// TestCorruptMiddleSkippedWithCount checks that a torn mid-file record — a
// partial page writeback that later successful appends survived — is skipped
// with a count instead of failing the whole replay.
func TestCorruptMiddleSkippedWithCount(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"seq":1,"time":"2026-01-01T00:00:00Z","job":"a","event":"attempt"}` + "\n")
	b.WriteString(`{"seq":2,"time":"2026-01-01T00:00:0` + "\n") // torn mid-file
	b.WriteString("not json at all\n")                          // torn mid-file
	b.WriteString(`{"seq":4,"time":"2026-01-01T00:00:00Z","job":"a","event":"done"}` + "\n")
	got, torn, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("mid-file torn record not tolerated: %v", err)
	}
	if torn != 2 {
		t.Fatalf("torn = %d, want 2", torn)
	}
	if len(got) != 2 || got[0].Event != EventAttempt || got[1].Event != EventDone {
		t.Fatalf("surviving entries wrong: %+v", got)
	}
}

// TestAppendSyncDurable checks the fsync-on-append path: a CreateSync journal
// produces a file whose every line is already visible (and whole) without
// Close.
func TestAppendSyncDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.jsonl")
	j, err := CreateSync(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Job: "a", Event: EventAttempt}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Job: "a", Event: EventDone}); err != nil {
		t.Fatal(err)
	}
	// Read back while the journal is still open: the appends must already be
	// durable, not sitting in a buffer waiting for Close.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read(f)
	f.Close()
	if err != nil || torn != 0 {
		t.Fatalf("read-before-close: torn=%d err=%v", torn, err)
	}
	if len(got) != 2 || got[0].Event != EventAttempt || got[1].Event != EventDone {
		t.Fatalf("entries: %+v", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRoundTrip checks the generic record layer used by the daemon's
// write-ahead queue: arbitrary record types round-trip line by line.
func TestRecordRoundTrip(t *testing.T) {
	type rec struct {
		ID    string `json:"id"`
		State string `json:"state"`
		N     int    `json:"n"`
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, err := CreateSync(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{"j1", "pending", 1}, {"j1", "leased", 2}, {"j1", "done", 3}}
	for _, r := range want {
		if err := j.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, torn, err := ReadRecords[rec](f)
	if err != nil || torn != 0 {
		t.Fatalf("ReadRecords: torn=%d err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentAppend hammers one journal from many goroutines under -race
// and checks every line lands whole with a unique sequence number.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := Entry{Job: fmt.Sprintf("job%d", w), Attempt: i + 1, Event: EventIncident,
					Incident: &flow.Incident{Index: i, Command: "rw", Stage: "launch",
						Class: flow.ClassTransient, Time: time.Now()}}
				if err := j.Append(e); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn = %d on a clean journal", torn)
	}
	if len(got) != writers*per {
		t.Fatalf("replayed %d entries, want %d", len(got), writers*per)
	}
	seen := make(map[int64]bool, len(got))
	for _, e := range got {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestAppendToBuffer checks the writer-backed constructor used by tests and
// daemon pipes.
func TestAppendToBuffer(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	if err := j.Append(Entry{Job: "b", Event: EventQuarantine, Detail: "retry budget exhausted"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Event != EventQuarantine {
		t.Fatalf("unexpected entries: %+v", got)
	}
}

// TestObserveAndSize checks the live-stream hook and byte accounting: every
// appended entry reaches the observer exactly once, in order, already
// stamped; Size tracks the file length, including records that predate the
// current journal handle.
func TestObserveAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Entry
	j.Observe(func(e Entry) { seen = append(seen, e) })
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Job: "a", Attempt: i + 1, Event: EventAttempt}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d entries, want 3", len(seen))
	}
	for i, e := range seen {
		if e.Seq != int64(i+1) || e.Time.IsZero() || e.Attempt != i+1 {
			t.Errorf("observed entry %d not stamped in order: %+v", i, e)
		}
	}
	sz := j.Size()
	if sz <= 0 {
		t.Fatalf("Size = %d after 3 appends", sz)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != sz {
		t.Fatalf("Size = %d, file length %v (err %v)", sz, st.Size(), err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening the same file seeds Size from the existing length.
	j2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Size() != sz {
		t.Fatalf("reopened Size = %d, want %d", j2.Size(), sz)
	}
	var nilJ *Journal
	nilJ.Observe(func(Entry) {})
	if nilJ.Size() != 0 {
		t.Fatal("nil journal has nonzero size")
	}
}

// TestObserveWithoutWriter checks the live stream on its own: a journal with
// no writer persists (and marshals) nothing, yet its observer still sees
// every entry exactly once, in order, stamped with sequence and time.
func TestObserveWithoutWriter(t *testing.T) {
	j := New(nil)
	var seen []Entry
	j.Observe(func(e Entry) { seen = append(seen, e) })
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Job: "a", Attempt: i + 1, Event: EventAttempt}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 || j.Size() != 0 {
		t.Fatalf("observer saw %d entries (want 3), Size = %d (want 0)", len(seen), j.Size())
	}
	for i, e := range seen {
		if e.Seq != int64(i+1) || e.Time.IsZero() || e.Attempt != i+1 {
			t.Errorf("observed entry %d not stamped in order: %+v", i, e)
		}
	}
}
