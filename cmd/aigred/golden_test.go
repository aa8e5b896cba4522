package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aigre/client"
)

// replayServer starts a daemon on a copy of one of internal/queue's
// checked-in WAL files and returns a GET helper for its routes.
func replayServer(t *testing.T, wal string) func(path string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "queue", "testdata", wal))
	if err != nil {
		t.Fatal(err)
	}
	qpath := filepath.Join(t.TempDir(), "queue.jsonl")
	if err := os.WriteFile(qpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, serverConfig{queuePath: qpath})
	return func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}
}

// TestGoldenWireShapes pins two response bodies byte for byte: GET
// /v1/jobs/{id} of a finished job replayed from the checked-in WAL (the
// same lines internal/queue's golden test pins), and the "engine" block of
// GET /v1/stats on an engine that has run nothing.
func TestGoldenWireShapes(t *testing.T) {
	get := replayServer(t, "wal.golden.jsonl")
	var stats struct {
		Engine json.RawMessage `json:"engine"`
	}
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"job.golden.json", get("/v1/jobs/j-0123456789ab")},
		{"stats_engine.golden.json", append(stats.Engine, '\n')},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s changed shape:\n got: %s\nwant: %s", c.file, c.got, want)
		}
	}
}

// TestClientSessionCompat decodes GET /v1/jobs/{id} with the client package's
// Job, as a client built against an older daemon does, over a WAL written
// before a session was the job record and over the current one: both give
// the client.Session that the older daemon served for the same job.
func TestClientSessionCompat(t *testing.T) {
	want := client.Session{Attempts: 2, Preemptions: 1,
		NodesBefore: 120, LevelsBefore: 14, NodesAfter: 96, LevelsAfter: 11,
		QueuedNS: 1500 * time.Microsecond, WallNS: 42 * time.Millisecond, ModeledNS: 7 * time.Millisecond,
		Result: "sha256:00112233", ResultBytes: 321}
	for _, wal := range []string{"wal.compat.jsonl", "wal.golden.jsonl"} {
		var j client.Job
		if err := json.Unmarshal(replayServer(t, wal)("/v1/jobs/j-0123456789ab"), &j); err != nil {
			t.Fatal(err)
		}
		if j.State != client.StateDone || j.Session == nil || *j.Session != want {
			t.Errorf("%s: job %+v session %+v, want session %+v", wal, j, j.Session, want)
		}
	}
}
