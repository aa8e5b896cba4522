package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"aigre"
	"aigre/client"
)

// api wraps an in-process test server in the public Go client.
func api(ts string) *client.Client { return client.New(ts) }

// submitAndWait runs one job to its terminal state through the v1 API.
func submitAndWait(t *testing.T, c *client.Client, req client.SubmitRequest) client.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ack, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j, err := c.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatalf("wait %s: %v", ack.ID, err)
	}
	return j
}

// TestV1RoutesAndDeprecation checks that the v1 routes answer clean, with no
// deprecation header, and that the pre-v1 flat routes are gone.
func TestV1RoutesAndDeprecation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for path, want := range map[string]int{
		"/v1/jobs": http.StatusOK, "/v1/stats": http.StatusOK,
		"/jobs": http.StatusNotFound, "/jobs/j-0": http.StatusNotFound, "/stats": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("GET %s carries a Deprecation header", path)
		}
	}
	if code, _, _ := postJSON(t, ts.URL+"/jobs", submitRequest{Script: "b", AIGER: aigerBytes(t)}); code != http.StatusNotFound {
		t.Errorf("POST /jobs: %d, want 404", code)
	}
}

// TestErrorEnvelope checks that v1 failures arrive as the typed JSON
// envelope, decodable by the client package.
func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	c := api(ts.URL)
	ctx := context.Background()

	_, err := c.Get(ctx, "j-nonexistent00")
	var e *client.Error
	if !errors.As(err, &e) || e.Status != 404 || e.Code != "not_found" {
		t.Errorf("missing job: %#v, want 404/not_found", err)
	}
	_, err = c.Submit(ctx, client.SubmitRequest{Script: "b; zz", AIGER: aigerBytes(t)})
	if !errors.As(err, &e) || e.Status != 400 || e.Code != "invalid_argument" || e.Message == "" {
		t.Errorf("bad script: %#v, want 400/invalid_argument", err)
	}
	_, err = c.List(ctx, client.ListOptions{State: "bogus"})
	if !errors.As(err, &e) || e.Status != 400 || e.Code != "invalid_argument" {
		t.Errorf("bad state filter: %#v, want 400/invalid_argument", err)
	}
}

// TestListFilters checks GET /v1/jobs server-side filtering: by client, by
// state, and bounded pagination returning the most recent submissions.
func TestListFilters(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxJobs: 2})
	c := api(ts.URL)
	ctx := context.Background()
	aig := aigerBytes(t)
	var ids []string
	for _, owner := range []string{"alice", "alice", "bob"} {
		j := submitAndWait(t, c, client.SubmitRequest{Script: "b", Client: owner, AIGER: aig})
		ids = append(ids, j.ID)
	}

	all, err := c.List(ctx, client.ListOptions{})
	if err != nil || len(all) != 3 {
		t.Fatalf("unfiltered list: %d jobs, err %v", len(all), err)
	}
	alices, err := c.List(ctx, client.ListOptions{Client: "alice"})
	if err != nil || len(alices) != 2 {
		t.Fatalf("client filter: %d jobs, err %v", len(alices), err)
	}
	for _, j := range alices {
		if j.Client != "alice" {
			t.Errorf("client filter leaked %q's job", j.Client)
		}
	}
	done, err := c.List(ctx, client.ListOptions{State: client.StateDone})
	if err != nil || len(done) != 3 {
		t.Fatalf("state filter: %d jobs, err %v", len(done), err)
	}
	if none, err := c.List(ctx, client.ListOptions{State: client.StateFailed}); err != nil || len(none) != 0 {
		t.Fatalf("failed filter: %d jobs, err %v", len(none), err)
	}
	last, err := c.List(ctx, client.ListOptions{Limit: 1})
	if err != nil || len(last) != 1 {
		t.Fatalf("limit: %d jobs, err %v", len(last), err)
	}
	if last[0].ID != ids[2] {
		t.Errorf("limit=1 returned %s, want most recent %s", last[0].ID, ids[2])
	}
}

// TestResultEndpoint checks the durable result store end to end: the binary
// fetch matches the stored digest and parses as AIGER, the JSON shape
// round-trips the same bytes, a running job is 409 not_ready, and an unknown
// job 404s.
func TestResultEndpoint(t *testing.T) {
	s, ts := testServer(t, serverConfig{maxJobs: 2})
	c := api(ts.URL)
	ctx := context.Background()

	j := submitAndWait(t, c, client.SubmitRequest{Script: "b; rw", AIGER: aigerBytes(t)})
	if j.State != client.StateDone || j.Session == nil || j.Session.Result == "" {
		t.Fatalf("job did not produce a result: %+v", j)
	}
	data, digest, err := c.Result(ctx, j.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if digest != j.Session.Result || len(data) != j.Session.ResultBytes {
		t.Errorf("result %s (%d bytes) vs session %s (%d bytes)",
			digest, len(data), j.Session.Result, j.Session.ResultBytes)
	}
	n, err := aigre.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("result is not AIGER: %v", err)
	}
	if got := n.Stats().Nodes; got != j.Session.NodesAfter {
		t.Errorf("result has %d nodes, session says %d", got, j.Session.NodesAfter)
	}
	// The blob survives in the content-addressed store.
	if blobs, _, err := s.st.Stats(); err != nil || blobs == 0 {
		t.Errorf("store empty after a completed job: blobs=%d err=%v", blobs, err)
	}

	// JSON shape carries the same bytes, base64 under "aiger".
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var jr struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
		Bytes  int    `json:"bytes"`
		AIGER  []byte `json:"aiger"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || jr.ID != j.ID || jr.Digest != digest || !bytes.Equal(jr.AIGER, data) {
		t.Errorf("json result: %+v (err %v), want %d identical bytes", jr, err, len(data))
	}

	// A job still running has no result yet: 409 with a retry hint.
	ack, err := c.Submit(ctx, client.SubmitRequest{Script: "b; rw", AIGER: aigerBytes(t),
		Parallel: ptr(true), Inject: []string{"rewrite/evaluate:1:stall"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jv, err := c.Get(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.State == client.StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled job never leased: %+v", jv)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, _, err = c.Result(ctx, ack.ID)
	var e *client.Error
	if !errors.As(err, &e) || e.Status != 409 || e.Code != "not_ready" || !e.IsRetryable() {
		t.Errorf("running job's result: %#v, want 409/not_ready with retry hint", err)
	}
	if _, _, err := c.Result(ctx, "j-nonexistent00"); !errors.As(err, &e) || e.Status != 404 {
		t.Errorf("missing job's result: %#v, want 404", err)
	}
}

// TestSSEResume checks the progress stream contract: the full history is
// gap-free and terminal-capped, a resumed subscription with Last-Event-ID
// replays exactly the missed suffix, and supervision events from the engine
// appear between the queue transitions.
func TestSSEResume(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	c := api(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	j := submitAndWait(t, c, client.SubmitRequest{Script: "b; rw", AIGER: aigerBytes(t)})

	stream, err := c.Events(ctx, j.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	var full []client.Event
	for ev := range stream.C {
		full = append(full, ev)
	}
	stream.Close()
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	// pending, leased, at least one supervision "attempt", done.
	if len(full) < 4 {
		t.Fatalf("history too short: %+v", full)
	}
	for i, ev := range full {
		if ev.Seq != i+1 || ev.Job != j.ID {
			t.Fatalf("gap or foreign event at %d: %+v", i, full)
		}
	}
	if full[0].Type != client.StatePending || full[1].Type != client.StateLeased {
		t.Errorf("history starts %q,%q, want pending,leased", full[0].Type, full[1].Type)
	}
	attempts := 0
	for _, ev := range full {
		if ev.Type == "attempt" {
			attempts++
		}
	}
	if attempts == 0 {
		t.Errorf("no supervision events in stream: %+v", full)
	}
	if last := full[len(full)-1]; last.Type != client.StateDone {
		t.Errorf("stream did not end at the terminal event: %+v", last)
	}

	// Resume from midway: exactly the suffix, no gap, no duplicate.
	resumed, err := c.Events(ctx, j.ID, full[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	var suffix []client.Event
	for ev := range resumed.C {
		suffix = append(suffix, ev)
	}
	resumed.Close()
	if len(suffix) != len(full)-2 {
		t.Fatalf("resume after %s: %d events, want %d", full[1].ID, len(suffix), len(full)-2)
	}
	for i, ev := range suffix {
		if ev.ID != full[i+2].ID {
			t.Fatalf("resume mismatch at %d: got %s, want %s", i, ev.ID, full[i+2].ID)
		}
	}

	// An unknown event id from another daemon incarnation replays the full
	// history rather than silently dropping events.
	foreign, err := c.Events(ctx, j.ID, "deadbeef-99")
	if err != nil {
		t.Fatal(err)
	}
	var replayed []client.Event
	for ev := range foreign.C {
		replayed = append(replayed, ev)
	}
	foreign.Close()
	if len(replayed) != len(full) {
		t.Fatalf("foreign-boot resume: %d events, want full %d", len(replayed), len(full))
	}

	// Unknown jobs refuse the subscription outright.
	if _, err := c.Events(ctx, "j-nonexistent00", ""); err == nil {
		t.Error("events for a missing job did not error")
	}
}
