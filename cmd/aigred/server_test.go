package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/queue"
)

// aigerBytes renders a small benchmark network as binary AIGER, the payload
// shape clients POST.
func aigerBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aigre.FromInternal(bench.Adder(8)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.queuePath == "" {
		cfg.queuePath = filepath.Join(t.TempDir(), "queue.jsonl")
	}
	if cfg.maxJobs == 0 {
		cfg.maxJobs = 1
	}
	cfg.batch.Workers = 2
	s, err := newServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ts.Close()
		s.drain(10 * time.Second)
		s.close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes(), resp.Header
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestSubmitValidation checks that malformed submissions are rejected with
// 400 before anything reaches the durable queue.
func TestSubmitValidation(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	aig := aigerBytes(t)
	cases := []submitRequest{
		{Script: "", AIGER: aig},                                       // missing script
		{Script: "b; zz", AIGER: aig},                                  // unparsable script
		{Script: "b; rw"},                                              // missing payload
		{Script: "b; rw", AIGER: []byte("not aiger")},                  // bad payload
		{Script: "b; rw", AIGER: aig, Inject: []string{"rewrite:bad"}}, // bad inject
	}
	for i, req := range cases {
		code, body, _ := postJSON(t, ts.URL+"/v1/jobs", req)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, code, body)
		}
	}
	if st := s.q.Stats(); st.Active() != 0 || st.Done != 0 {
		t.Errorf("rejected submissions reached the queue: %+v", st)
	}
}

// TestDebugPprofEndpoints checks that the profiling mux is reachable: the
// index and the cheap text endpoints respond 200 on the daemon's own mux
// (net/http/pprof's init only registers on http.DefaultServeMux).
func TestDebugPprofEndpoints(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/symbol",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestSubmitRunsJob is the in-process round trip: a valid submission is
// acknowledged 202 with an id, runs to done, and its session becomes
// queryable (without the AIGER payload echoed back).
func TestSubmitRunsJob(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	code, body, _ := postJSON(t, ts.URL+"/v1/jobs", submitRequest{
		Name: "adder", Script: "b; rw; rf", AIGER: aigerBytes(t)})
	if code != http.StatusAccepted {
		t.Fatalf("status %d (%s), want 202", code, body)
	}
	var ack map[string]string
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	id := ack["id"]
	if !strings.HasPrefix(id, "j-") {
		t.Fatalf("ack id %q", id)
	}
	var jv jobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &jv); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d", id, code)
		}
		if queue.State(jv.State).Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv.State != queue.Done {
		t.Fatalf("job ended %q (%s), want done", jv.State, jv.Detail)
	}
	if jv.Leases != 1 {
		t.Errorf("leases = %d, want 1", jv.Leases)
	}
	if jv.Session == nil || jv.Session.NodesAfter == 0 || jv.Session.Attempts != 1 {
		t.Errorf("session not queryable: %+v", jv.Session)
	}
	if jv.Name != "adder" {
		t.Errorf("name %q", jv.Name)
	}
	if getJSON(t, ts.URL+"/v1/jobs/j-nonexistent00", nil) != http.StatusNotFound {
		t.Error("missing job did not 404")
	}
}

// TestSubmitSaturation checks the bounded-depth admission: with MaxDepth 1
// and a slow job holding the queue, the next submission gets 503 with a
// Retry-After.
func TestSubmitSaturation(t *testing.T) {
	_, ts := testServer(t, serverConfig{queue: queue.Options{MaxDepth: 1}})
	slow := submitRequest{Script: "b; rw; rf; b", AIGER: aigerBytes(t),
		Parallel: ptr(true), Inject: []string{"rewrite/evaluate:1:stall"}}
	if code, body, _ := postJSON(t, ts.URL+"/v1/jobs", slow); code != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", code, body)
	}
	code, _, hdr := postJSON(t, ts.URL+"/v1/jobs", submitRequest{Script: "b", AIGER: aigerBytes(t)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second submit: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestSubmitRateLimited checks the per-client token bucket: burst 1 admits
// one submission and 429s the next, while a different client is unaffected.
func TestSubmitRateLimited(t *testing.T) {
	_, ts := testServer(t, serverConfig{rate: 0.0001, burst: 1})
	aig := aigerBytes(t)
	if code, body, _ := postJSON(t, ts.URL+"/v1/jobs",
		submitRequest{Script: "b", AIGER: aig, Client: "alice"}); code != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", code, body)
	}
	code, _, hdr := postJSON(t, ts.URL+"/v1/jobs", submitRequest{Script: "b", AIGER: aig, Client: "alice"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code, _, _ := postJSON(t, ts.URL+"/v1/jobs",
		submitRequest{Script: "b", AIGER: aig, Client: "bob"}); code != http.StatusAccepted {
		t.Errorf("other client's submit: %d, want 202", code)
	}
}

// TestSubmitWhileDraining checks that a draining daemon refuses new work
// with 503 but still answers queries.
func TestSubmitWhileDraining(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	code, _, hdr := postJSON(t, ts.URL+"/v1/jobs", submitRequest{Script: "b", AIGER: aigerBytes(t)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
	if health["draining"] != true {
		t.Errorf("healthz = %v", health)
	}
}

// TestLimiterRefill checks the token-bucket arithmetic with a synthetic
// clock: an exhausted bucket refuses with a sensible Retry-After and refills
// at the configured rate.
func TestLimiterRefill(t *testing.T) {
	l := newLimiter(2, 2) // 2/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := l.allow("c", now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	wait, ok := l.allow("c", now)
	if ok || wait < 1 {
		t.Fatalf("empty bucket: ok=%v wait=%d", ok, wait)
	}
	if _, ok := l.allow("c", now.Add(600*time.Millisecond)); !ok {
		t.Error("token not refilled after 600ms at 2/s")
	}
	if _, ok := l.allow("other", now); !ok {
		t.Error("fresh client refused")
	}
	unlimited := newLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if _, ok := unlimited.allow("c", now); !ok {
			t.Fatal("zero-rate limiter refused")
		}
	}
}

func ptr[T any](v T) *T { return &v }
