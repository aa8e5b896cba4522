package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenWireShapes pins two response bodies byte for byte: GET
// /v1/jobs/{id} of a finished job replayed from the checked-in WAL (the
// same lines internal/queue's golden test pins), and the "engine" block of
// GET /v1/stats on an engine that has run nothing.
func TestGoldenWireShapes(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("..", "..", "internal", "queue", "testdata", "wal.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	qpath := filepath.Join(t.TempDir(), "queue.jsonl")
	if err := os.WriteFile(qpath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, serverConfig{queuePath: qpath})

	get := func(path string) []byte {
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
