// Package client is the Go client of the aigred daemon's v1 HTTP API.
//
// It wraps submission, queries, result fetches, and the Server-Sent-Events
// progress stream behind typed methods, and converts the daemon's JSON
// error envelope into *Error values carrying the machine-readable code and
// retry hint. The package speaks only the public wire protocol — it shares
// no types with the daemon's internals, so it can be vendored into other
// programs as-is.
//
//	c := client.New("http://127.0.0.1:8080")
//	ack, err := c.Submit(ctx, client.SubmitRequest{Script: "b; rw", AIGER: payload})
//	job, err := c.Wait(ctx, ack.ID) // streams events, polls as fallback
//	result, _, err := c.Result(ctx, ack.ID)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Job states reported by the daemon.
const (
	StatePending     = "pending"
	StateLeased      = "leased"
	StateDone        = "done"
	StateFailed      = "failed"
	StateQuarantined = "quarantined"
	StateCancelled   = "cancelled"
)

// Terminal reports whether state is final: a job in a terminal state will
// never change again.
func Terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateQuarantined, StateCancelled:
		return true
	}
	return false
}

// Client talks to one aigred daemon. The zero value is not usable; construct
// with New. Methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:8080"),
// using http.DefaultClient.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
}

// WithHTTPClient replaces the underlying *http.Client (timeouts, transports,
// test doubles) and returns the client for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// Error is a non-2xx daemon response, decoded from the v1 JSON error
// envelope {"error": {"code", "message", "retry_after_ms"}}.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code: "saturated", "rate_limited",
	// "draining", "not_found", "invalid_argument", "not_ready", ...
	Code string
	// Message is the human-readable explanation.
	Message string
	// RetryAfter is the daemon's retry hint, when it gave one.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("aigred: HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("aigred: %s: %s", e.Code, e.Message)
}

// IsRetryable reports whether waiting and retrying can succeed (saturation,
// rate limits, drains — anything with a retry hint).
func (e *Error) IsRetryable() bool { return e.RetryAfter > 0 }

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	Name     string `json:"name,omitempty"`
	Script   string `json:"script"`
	Priority int    `json:"priority,omitempty"`
	// Parallel overrides the daemon's default engine choice when non-nil.
	Parallel *bool    `json:"parallel,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Client   string   `json:"client,omitempty"`
	Inject   []string `json:"inject,omitempty"`
	// AIGER is the input network (binary or ASCII AIGER bytes; the JSON
	// encoding base64s it automatically).
	AIGER []byte `json:"aiger"`
}

// Ack is the submission acknowledgment: by the time it arrives the job is
// durably queued and survives a daemon crash.
type Ack struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// Session is the queryable execution record of a finished (or in-flight)
// job.
type Session struct {
	Attempts     int           `json:"attempts,omitempty"`
	Preemptions  int           `json:"preemptions,omitempty"`
	NodesBefore  int           `json:"nodes_before,omitempty"`
	LevelsBefore int           `json:"levels_before,omitempty"`
	NodesAfter   int           `json:"nodes_after,omitempty"`
	LevelsAfter  int           `json:"levels_after,omitempty"`
	QueuedNS     time.Duration `json:"queued_ns,omitempty"`
	WallNS       time.Duration `json:"wall_ns,omitempty"`
	ModeledNS    time.Duration `json:"modeled_ns,omitempty"`
	// Result is the content address of the optimized AIGER in the daemon's
	// blob store; fetch it with Client.Result.
	Result      string `json:"result,omitempty"`
	ResultBytes int    `json:"result_bytes,omitempty"`
}

// Job is one queued job as reported by GET /v1/jobs/{id}.
type Job struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Script    string    `json:"script"`
	State     string    `json:"state"`
	Detail    string    `json:"detail,omitempty"`
	Priority  int       `json:"priority,omitempty"`
	Parallel  bool      `json:"parallel,omitempty"`
	Client    string    `json:"client,omitempty"`
	Leases    int       `json:"leases"`
	Submitted time.Time `json:"submitted"`
	Updated   time.Time `json:"updated"`
	Session   *Session  `json:"session,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j Job) Terminal() bool { return Terminal(j.State) }

// QueueStats mirrors the daemon's queue counters from GET /v1/stats.
type QueueStats struct {
	Pending     int   `json:"pending"`
	Leased      int   `json:"leased"`
	Done        int   `json:"done"`
	Failed      int   `json:"failed"`
	Quarantined int   `json:"quarantined"`
	Cancelled   int   `json:"cancelled"`
	Recovered   int   `json:"recovered,omitempty"`
	Torn        int   `json:"torn,omitempty"`
	Compactions int   `json:"compactions,omitempty"`
	WALBytes    int64 `json:"wal_bytes,omitempty"`
}

// Active is the queue depth: jobs not yet terminal.
func (s QueueStats) Active() int { return s.Pending + s.Leased }

// Stats is the GET /v1/stats response (engine metrics are left as raw JSON;
// their shape belongs to the engine, not this API).
type Stats struct {
	Queue    QueueStats      `json:"queue"`
	Store    StoreStats      `json:"store"`
	Engine   json.RawMessage `json:"engine"`
	Draining bool            `json:"draining"`
}

// StoreStats sizes the daemon's result blob store.
type StoreStats struct {
	Blobs int   `json:"blobs"`
	Bytes int64 `json:"bytes"`
}

// Submit durably enqueues a job. The returned Ack carries the daemon-minted
// job id; a non-2xx response surfaces as *Error.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (Ack, error) {
	var ack Ack
	body, err := json.Marshal(req)
	if err != nil {
		return ack, err
	}
	err = c.doJSON(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), &ack)
	return ack, err
}

// Get fetches one job's current state and session.
func (c *Client) Get(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &j)
	return j, err
}

// ListOptions filter GET /v1/jobs. Zero values mean "no filter" (the daemon
// still bounds an unlimited listing to its default page size).
type ListOptions struct {
	State  string
	Client string
	Limit  int
}

// List fetches jobs in submission order, filtered server-side.
func (c *Client) List(ctx context.Context, opts ListOptions) ([]Job, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	if opts.Client != "" {
		q.Set("client", opts.Client)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var jobs []Job
	err := c.doJSON(ctx, http.MethodGet, path, nil, &jobs)
	return jobs, err
}

// Stats fetches the daemon's queue, store, and engine statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Result fetches a finished job's optimized network as raw AIGER bytes,
// together with its content digest. A job that is not yet terminal yields
// *Error with code "not_ready"; one that ended without output, "no_result".
func (c *Client) Result(ctx context.Context, id string) (data []byte, digest string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", decodeError(resp)
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	return data, resp.Header.Get("X-Aigred-Digest"), nil
}

// Wait blocks until the job reaches a terminal state and returns its final
// record. It follows the job's SSE event stream (reconnecting with the last
// seen event id, so daemon restarts and dropped connections lose nothing)
// and degrades to polling when streaming is unavailable. Transport failures
// are retried with a capped backoff until ctx ends; an error response from
// the daemon (*Error, such as not_found) ends the wait.
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	lastID, terminal := "", false
	var backoff time.Duration // after consecutive transport failures
	for {
		if !terminal {
			stream, err := c.Events(ctx, id, lastID)
			if err == nil {
				for ev := range stream.C {
					lastID = ev.ID
					if terminal = Terminal(ev.Type); terminal {
						break
					}
				}
				stream.Close()
				if err := ctx.Err(); err != nil {
					return Job{}, err
				}
				if !terminal {
					// Stream ended without a terminal event (daemon restart,
					// overflow cut): reconnect from the last seen id.
					continue
				}
			} else if e, ok := err.(*Error); ok && e.Code == "not_found" {
				return Job{}, err
			}
			// Otherwise streaming is unavailable (proxy, old daemon, dropped
			// connection): poll instead.
		}
		j, err := c.Get(ctx, id)
		var pause time.Duration
		switch _, isResp := err.(*Error); {
		case err == nil && (terminal || j.Terminal()):
			return j, nil
		case err == nil:
			pause, backoff = 100*time.Millisecond, 0
		case isResp:
			return j, err
		default:
			backoff = min(max(2*backoff, 50*time.Millisecond), time.Second)
			pause = backoff
		}
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-time.After(pause):
		}
	}
}

// doJSON issues a request and decodes a 2xx JSON response into out; non-2xx
// responses decode into *Error.
func (c *Client) doJSON(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into *Error, tolerating non-envelope
// bodies (proxies, panics) by falling back to the raw text.
func decodeError(resp *http.Response) error {
	e := &Error{Status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var envelope struct {
		Error struct {
			Code         string `json:"code"`
			Message      string `json:"message"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error.Code != "" {
		e.Code = envelope.Error.Code
		e.Message = envelope.Error.Message
		if envelope.Error.RetryAfterMS > 0 {
			e.RetryAfter = time.Duration(envelope.Error.RetryAfterMS) * time.Millisecond
		}
		return e
	}
	e.Message = strings.TrimSpace(string(raw))
	return e
}
