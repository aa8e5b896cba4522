package sched

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/journal"
)

// TestGoldenEntry pins the on-disk shape of a supervision-journal line byte
// for byte: a fully populated incident event, emitted by an engine whose sink
// appends to a real journal file, so emit's stamping is covered (Seq is
// assigned by emit, Time is preset and kept).
func TestGoldenEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	jour, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := gpu.NewPool(1)
	defer pool.Close()
	e := NewEngine(context.Background(), pool, Options{OnEvent: func(ev Event) {
		if err := jour.AppendRecord(ev); err != nil {
			t.Error(err)
		}
	}})
	at := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	e.emit(Event{
		Time: at, Job: "j-0123456789ab", Attempt: 2, Event: EventIncident,
		Class: flow.ClassTransient, Detail: "injected panic", Backoff: 5 * time.Millisecond,
		Incident: &flow.Incident{Index: 1, Command: "rw", Stage: "launch", Kernel: "rewrite/eval",
			Action: "retried-sequential", Detail: "injected panic", Class: flow.ClassTransient,
			Attempt: 2, Time: at},
	})
	if err := jour.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "entry.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal line changed shape:\n got: %s\nwant: %s", got, want)
	}
}
