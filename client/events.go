package client

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Event is one entry of a job's progress stream: a durable queue transition
// ("pending", "leased", "done", ...) or a live supervision event
// ("attempt", "incident", "retry", "preempt", "timeout", "quarantine").
type Event struct {
	// ID is the SSE event id; pass the last seen one when resuming.
	ID string `json:"id"`
	// Seq is the job-local 1-based event index.
	Seq int `json:"seq"`
	// Job is the queue job id.
	Job string `json:"job"`
	// Type is the transition or supervision event name.
	Type string `json:"type"`
	// Attempt stamps supervision events with the attempt ordinal.
	Attempt int `json:"attempt,omitempty"`
	// Class is the incident/retry failure class, when known.
	Class string `json:"class,omitempty"`
	// Detail is the human-readable note.
	Detail string    `json:"detail,omitempty"`
	Time   time.Time `json:"time"`
}

// EventStream is one SSE subscription to a job's events. Receive from C
// until it closes (terminal event, disconnect, or Close), then check Err.
type EventStream struct {
	// C delivers events in order. Closed when the stream ends.
	C <-chan Event

	cancel context.CancelFunc
	err    error
	done   chan struct{}
}

// Close tears down the stream; safe to call more than once.
func (s *EventStream) Close() {
	s.cancel()
	<-s.done
}

// Err reports why the stream ended: nil for a server-closed stream (the job
// went terminal), the transport error otherwise. Valid once C is closed.
func (s *EventStream) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Events opens the job's SSE progress stream, resuming after lastID when
// non-empty ("" streams the job's full history). The daemon replays any
// missed events first, then continues live; the stream ends after the
// terminal queue event.
func (c *Client) Events(ctx context.Context, id, lastID string) (*EventStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		cancel()
		return nil, decodeError(resp)
	}
	ch := make(chan Event, 16)
	s := &EventStream{C: ch, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer close(ch)
		defer resp.Body.Close()
		s.err = readSSE(ctx, resp.Body, ch)
		if ctx.Err() != nil {
			s.err = nil // deliberate Close/cancel, not a transport failure
		}
	}()
	return s, nil
}

// readSSE parses the text/event-stream wire format: "id:"/"event:"/"data:"
// fields accumulated until a blank line dispatches the event. Only the data
// payload is decoded — it carries the full Event as JSON. A cancelled ctx
// ends it even while the caller has stopped receiving from ch.
func readSSE(ctx context.Context, body interface{ Read([]byte) (int, error) }, ch chan<- Event) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				var ev Event
				if json.Unmarshal([]byte(data.String()), &ev) == nil {
					select {
					case ch <- ev:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				data.Reset()
			}
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n') // multi-line data field
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event:/retry:/comments — the JSON payload carries
			// everything this client needs.
		}
	}
	return sc.Err()
}
