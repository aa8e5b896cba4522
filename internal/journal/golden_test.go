package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aigre/internal/flow"
)

// TestGoldenEntry pins the on-disk shape of a supervision-journal line byte
// for byte: a fully populated incident entry, written through a journal so
// the stamping path is covered (Seq is assigned by Append, Time is preset).
func TestGoldenEntry(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	var got bytes.Buffer
	j := New(&got)
	if err := j.Append(Entry{
		Time: at, Job: "j-0123456789ab", Attempt: 2, Event: EventIncident,
		Class: flow.ClassTransient, Detail: "injected panic", Backoff: 5 * time.Millisecond,
		Incident: &flow.Incident{Index: 1, Command: "rw", Stage: "launch", Kernel: "rewrite/eval",
			Action: "retried-sequential", Detail: "injected panic", Class: flow.ClassTransient,
			Attempt: 2, Time: at},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "entry.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("journal entry changed shape:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}
