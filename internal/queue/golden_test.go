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
		Attempts: 2, Preemptions: 1,
		NodesBefore: 120, LevelsBefore: 14, NodesAfter: 96, LevelsAfter: 11,
		QueuedNS: 1500 * time.Microsecond, WallNS: 42 * time.Millisecond, ModeledNS: 7 * time.Millisecond,
		Result: "sha256:00112233", ResultBytes: 321,
		Incidents: []flow.Incident{{Index: 1, Command: "rw", Stage: "launch", Kernel: "rewrite/eval",
			Action: "retried-sequential", Detail: "injected panic", Class: flow.ClassTransient,
			Attempt: 1, Time: at.Add(time.Second)}},
		Profile: []gpu.KernelProfile{{Kernel: "balance/collect", Launches: 3, Threads: 360, Work: 1440,
			Span: 12, Modeled: 5 * time.Millisecond, Seq: time.Millisecond, Wall: 9 * time.Millisecond}},
		Cache: rcache.Stats{Hits: 10, Misses: 4, Evictions: 1, NpnHits: 200, NpnMisses: 22, Entries: 3},
	}
	return []Record{
		{Seq: 1, Time: at, ID: spec.ID, State: Pending, Spec: &spec},
		{Seq: 2, Time: at.Add(time.Second), ID: spec.ID, State: Leased},
		{Seq: 3, Time: at.Add(2 * time.Second), ID: spec.ID, State: Done, Detail: "ok", Session: sess},
	}
}

// TestGoldenWAL pins the on-disk shape of WAL records byte for byte, and
// checks that the checked-in lines replay to the Session they were built from.
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

	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j, ok := q.Get(recs[0].ID)
	if !ok || j.State != Done || j.Leases != 1 || j.Detail != "ok" {
		t.Fatalf("replayed job: %+v ok=%v", j, ok)
	}
	ws, gs := reflect.ValueOf(*recs[2].Session), reflect.ValueOf(*j.Session)
	for i := 0; i < ws.NumField(); i++ {
		if !reflect.DeepEqual(gs.Field(i).Interface(), ws.Field(i).Interface()) {
			t.Errorf("replayed Session.%s = %+v, want %+v",
				ws.Type().Field(i).Name, gs.Field(i).Interface(), ws.Field(i).Interface())
		}
	}
}
