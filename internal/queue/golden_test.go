package queue

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/sched"
)

// goldenWAL is the life of one job as three WAL records — submission, lease,
// terminal outcome with a fully populated Session — built from fixed values
// so the marshalled bytes are reproducible.
func goldenWAL() []Record {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	spec := Spec{ID: "j-0123456789ab", Name: "adder", Script: "b; rw; rf", Priority: 3,
		Parallel: true, Workers: 2, Client: "tenant-a", Inject: []string{"rewrite/eval:1:panic"},
		AIGER: []byte("aag 0 0 0 0 0\n"), Submitted: at}
	sess := &Session{
		Record: sched.Record{
			Name: spec.ID, Script: spec.Script,
			Record: flow.Record{
				Wall: 42 * time.Millisecond, Modeled: 7 * time.Millisecond,
				Incidents: []flow.Incident{{Index: 1, Command: "rw", Stage: "launch", Kernel: "rewrite/eval",
					Action: "retried-sequential", Detail: "injected panic", Class: flow.ClassTransient,
					Attempt: 1, Time: at.Add(time.Second)}},
				Profile: []gpu.KernelProfile{{Kernel: "balance/collect", Launches: 3, Threads: 360, Work: 1440,
					Span: 12, Modeled: 5 * time.Millisecond, Seq: time.Millisecond, Wall: 9 * time.Millisecond}},
				CacheStats: rcache.Stats{Hits: 10, Misses: 4, Evictions: 1, Entries: 3},
			},
			Attempts: 2, Preemptions: 1, Queued: 1500 * time.Microsecond,
			NodesBefore: 120, LevelsBefore: 14, NodesAfter: 96, LevelsAfter: 11,
		},
		Result: "sha256:00112233", ResultBytes: 321,
	}
	return []Record{
		{Seq: 1, Time: at, ID: spec.ID, State: Pending, Spec: &spec},
		{Seq: 2, Time: at.Add(time.Second), ID: spec.ID, State: Leased},
		{Seq: 3, Time: at.Add(2 * time.Second), ID: spec.ID, State: Done, Detail: "ok", Session: sess},
	}
}

// TestGoldenWAL pins the on-disk shape of WAL records byte for byte, and
// checks that the checked-in lines replay to the job they were built from.
func TestGoldenWAL(t *testing.T) {
	recs := goldenWAL()
	var got bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(line, '\n'))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wal.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WAL records changed shape:\n got: %s\nwant: %s", got.Bytes(), want)
	}
	checkReplay(t, "wal.golden.jsonl", recs)
}

// TestWALCompat replays WAL lines written when a Session was a copy of the
// job record's fields rather than the record itself: a queue file from
// before the change must come back as the same job, with the keys the old
// shape lacked (name, script, the verdicts) left zero.
func TestWALCompat(t *testing.T) {
	recs := goldenWAL()
	old := *recs[2].Session
	old.Name, old.Script = "", ""
	recs[2].Session = &old
	checkReplay(t, "wal.compat.jsonl", recs)
}

// checkReplay opens a queue on the testdata file and checks that its one job
// is the job recs describe: submitted, leased once, resolved with the last
// record's state, detail and session.
func checkReplay(t *testing.T, file string, recs []Record) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	last := recs[len(recs)-1]
	want := Job{Spec: *recs[0].Spec, State: last.State, Detail: last.Detail, Leases: 1,
		Session: last.Session, Updated: last.Time}
	got, ok := q.Get(recs[0].ID)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("%s replayed to\n%+v\nsession %+v\nwant\n%+v\nsession %+v", file, got, got.Session, want, want.Session)
	}
}
