package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestErrorEnvelopeDecoding checks that the daemon's typed JSON envelope
// surfaces as *Error with code, message, and retry hint — and that a
// non-envelope body (proxy, panic page) degrades to the raw text.
func TestErrorEnvelopeDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j-missing":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such job"}}`)
		case "/v1/jobs":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"saturated","message":"full","retry_after_ms":1500}}`)
		default:
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "upstream exploded")
		}
	}))
	defer ts.Close()
	c := New(ts.URL)

	_, err := c.Get(context.Background(), "j-missing")
	var e *Error
	if !errors.As(err, &e) || e.Code != "not_found" || e.Status != 404 || e.IsRetryable() {
		t.Fatalf("not_found: %#v", err)
	}
	_, err = c.Submit(context.Background(), SubmitRequest{Script: "b"})
	if !errors.As(err, &e) || e.Code != "saturated" || e.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("saturated: %#v", err)
	}
	_, err = c.Stats(context.Background())
	if !errors.As(err, &e) || e.Code != "" || e.Message != "upstream exploded" || e.Status != 502 {
		t.Fatalf("raw body: %#v", err)
	}
}

// TestEventsParsesSSE checks the wire parser: id/event/data framing, resume
// header forwarding, and channel closure at end of stream.
func TestEventsParsesSSE(t *testing.T) {
	var gotLast string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotLast = r.Header.Get("Last-Event-ID")
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: boot-1\nevent: pending\ndata: {\"id\":\"boot-1\",\"seq\":1,\"job\":\"j-1\",\"type\":\"pending\"}\n\n")
		fmt.Fprint(w, ": heartbeat comment\n\n")
		fmt.Fprint(w, "id: boot-2\nevent: done\ndata: {\"id\":\"boot-2\",\"seq\":2,\"job\":\"j-1\",\"type\":\"done\"}\n\n")
	}))
	defer ts.Close()

	s, err := New(ts.URL).Events(context.Background(), "j-1", "boot-0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var evs []Event
	for ev := range s.C {
		evs = append(evs, ev)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if gotLast != "boot-0" {
		t.Errorf("Last-Event-ID not forwarded: %q", gotLast)
	}
	if len(evs) != 2 || evs[0].Type != "pending" || evs[1].Type != "done" || evs[1].Seq != 2 {
		t.Fatalf("parsed events: %+v", evs)
	}
}

// TestEventStreamCloseWithoutReading checks that Close returns when the
// caller stopped receiving: the server writes more events than C buffers,
// and the reader blocked on a full channel must still see the cancellation.
func TestEventStreamCloseWithoutReading(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 1; i <= 64; i++ {
			fmt.Fprintf(w, "id: e-%d\ndata: {\"id\":\"e-%d\",\"seq\":%d,\"job\":\"j-1\",\"type\":\"attempt\"}\n\n", i, i, i)
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done() // hold the stream open, as a live job's is
	}))
	defer ts.Close()

	s, err := New(ts.URL).Events(context.Background(), "j-1", "")
	if err != nil {
		t.Fatal(err)
	}
	<-s.C // one event read, then the caller walks away
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return within 3s of the caller's last receive")
	}
	if s.Err() != nil {
		t.Errorf("Err after Close = %v, want nil", s.Err())
	}
}

// TestWaitFallsBackToPolling checks that Wait still resolves when the events
// endpoint is unavailable (an older daemon or an SSE-stripping proxy).
func TestWaitFallsBackToPolling(t *testing.T) {
	polls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j-1/events":
			w.WriteHeader(http.StatusNotImplemented)
			fmt.Fprint(w, `{"error":{"code":"internal","message":"no sse here"}}`)
		case "/v1/jobs/j-1":
			polls++
			state := StateLeased
			if polls >= 2 {
				state = StateDone
			}
			fmt.Fprintf(w, `{"id":"j-1","state":%q,"leases":1}`, state)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := New(ts.URL).Wait(ctx, "j-1")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || polls < 2 {
		t.Fatalf("job %+v after %d polls", j, polls)
	}
}

// TestWaitSurvivesDroppedConnections checks that Wait rides out transport
// failures: the server drops its first two connections mid-request, then
// serves a terminal job, and Wait returns that job instead of the error.
func TestWaitSurvivesDroppedConnections(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 2 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		switch r.URL.Path {
		case "/v1/jobs/j-1/events":
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprintf(w, "id: 1\nevent: done\ndata: {\"id\":\"1\",\"type\":\"done\"}\n\n")
		case "/v1/jobs/j-1":
			fmt.Fprintf(w, `{"id":"j-1","state":%q,"leases":1}`, StateDone)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := New(ts.URL).Wait(ctx, "j-1")
	if err != nil {
		t.Fatalf("Wait gave up after %d requests: %v", requests.Load(), err)
	}
	if j.State != StateDone {
		t.Fatalf("job %+v", j)
	}
}

// TestWaitEndsOnErrorResponse checks that an error response from the daemon
// still ends Wait: only transport failures are retried.
func TestWaitEndsOnErrorResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such job"}}`)
	}))
	defer ts.Close()
	_, err := New(ts.URL).Wait(context.Background(), "j-1")
	var e *Error
	if !errors.As(err, &e) || e.Code != "not_found" {
		t.Fatalf("Wait = %v, want the not_found error", err)
	}
}
