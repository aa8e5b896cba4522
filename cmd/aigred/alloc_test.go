package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"aigre"
	"aigre/internal/aiger"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
)

// TestSubmitAllocBudget: validating a submission costs one parse of its
// payload, and the whole admission — decoding the body, validating, appending
// the WAL record — stays under 16 times the payload. Validation used to
// strash the network behind a fixed 1 MiB read buffer and throw it away:
// 1.4 MB, 86 times the payload, for the 17 KB job measured here. What is
// left is encoding/json's doubling read buffer (4.9x), the parsed network
// (8 B per AND against the payload's 2.8 B) and the WAL record (3.7x).
func TestSubmitAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	s, _ := testServer(t, serverConfig{})
	s.cancel() // stop the workers: nothing may lease and run the job meanwhile
	var buf bytes.Buffer
	if err := aigre.FromInternal(bench.Sqrt(48)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()

	parse := alloctest.Bytes(func() { aiger.Read(bytes.NewReader(payload)) })
	validate := alloctest.Bytes(func() {
		if _, err := validateSubmit(&submitRequest{Script: "b; rw", AIGER: payload}, s.cfg); err != nil {
			t.Fatal(err)
		}
	})
	if validate > parse+1024 {
		t.Errorf("validation allocated %d B, one parse of the payload %d B", validate, parse)
	}

	body, err := json.Marshal(submitRequest{Script: "b; rw", AIGER: payload})
	if err != nil {
		t.Fatal(err)
	}
	// alloctest.Bytes calls its function three times, and a request body
	// reads once: each call builds its own request.
	admit := alloctest.Bytes(func() {
		rec := httptest.NewRecorder()
		s.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	if budget := uint64(16 * len(payload)); admit >= budget {
		t.Errorf("admitting %d bytes allocated %d B, budget %d B", len(payload), admit, budget)
	}
}
