// Package bus is the aigred daemon's in-process job event bus: the fan-out
// layer between the sources of job lifecycle (the write-ahead queue log, the
// engine's supervision events) and live subscribers (the SSE handlers of
// GET /v1/jobs/{id}/events).
//
// Every published event is appended to the job's in-memory history and
// fanned out to that job's subscribers. Histories are what make Server-Sent
// Events resumable: a subscriber presents the last event id it saw and the
// bus replays everything after it, then splices into the live stream with
// no gap and no duplicate (replay and registration happen under one lock).
//
// Event ids are "<boot>-<n>": n is the job's monotonic event index, boot
// identifies the bus incarnation. Within one incarnation a resume is exact.
// Across a daemon restart the bus is re-seeded from the replayed WAL —
// whose compaction may have collapsed intermediate transitions — so an id
// minted by a previous incarnation no longer names an exact position; the
// bus detects the foreign boot token and replays the job's full (possibly
// collapsed) history instead. Delivery across restarts is therefore
// at-least-once, never lossy: the client re-sees a prefix rather than
// missing a suffix.
package bus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Event is one job lifecycle or supervision event.
type Event struct {
	// ID is the SSE event id: "<boot>-<seq>".
	ID string `json:"id"`
	// Seq is the job-local monotonic index, 1-based.
	Seq int `json:"seq"`
	// Job is the queue job id.
	Job string `json:"job"`
	// Type is the transition or supervision event name: a queue state
	// ("pending", "leased", "done", "failed", "quarantined", "cancelled")
	// or a supervision event ("attempt", "incident", "retry", "preempt",
	// "timeout", "quarantine").
	Type string `json:"type"`
	// Attempt stamps supervision events with the attempt ordinal.
	Attempt int `json:"attempt,omitempty"`
	// Class is the incident/retry failure class, when known.
	Class string `json:"class,omitempty"`
	// Detail is the human-readable transition note.
	Detail string    `json:"detail,omitempty"`
	Time   time.Time `json:"time"`
}

// Sub is one subscription to a job's event stream. Receive from C until it
// is closed; a close with Overflowed() true means the subscriber fell too
// far behind and must resubscribe with its last seen id.
type Sub struct {
	C <-chan Event

	bus      *Bus
	job      string
	ch       chan Event
	closed   bool
	overflow bool
}

// Bus is the event hub. All methods are safe for concurrent use.
type Bus struct {
	mu   sync.Mutex
	boot string
	hist map[string][]Event
	subs map[string]map[*Sub]struct{}
}

// New creates a bus. boot tokens a bus incarnation and prefixes every event
// id; a restarted daemon gets a new token, which is how resume detects that
// per-incarnation indexes are no longer comparable.
func New(boot string) *Bus {
	return &Bus{
		boot: boot,
		hist: make(map[string][]Event),
		subs: make(map[string]map[*Sub]struct{}),
	}
}

// subBuffer is the per-subscriber channel slack beyond the replayed history.
// Events are rare (a handful per job attempt), so a subscriber this far
// behind is effectively gone; it is closed with Overflowed set instead of
// blocking the publisher.
const subBuffer = 256

// Publish appends an event for job to its history and delivers it to the
// job's subscribers. The bus stamps Seq, ID, and (when zero) Time; Job is
// taken from the argument, overriding whatever is in e.
func (b *Bus) Publish(job string, e Event) Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	e.Job = job
	e.Seq = len(b.hist[job]) + 1
	e.ID = fmt.Sprintf("%s-%d", b.boot, e.Seq)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.hist[job] = append(b.hist[job], e)
	for s := range b.subs[job] {
		select {
		case s.ch <- e:
		default:
			// Subscriber stalled: cut it loose rather than block the
			// publisher (which may hold queue or engine locks upstream).
			s.overflow = true
			b.dropLocked(s)
		}
	}
	return e
}

// Subscribe returns a subscription to job's events that first replays
// history after lastID, then continues live with no gap or duplicate.
// lastID semantics: "" replays the full history; an id minted by this bus
// incarnation resumes exactly after it; an id from another incarnation (or
// garbage) replays the full history — at-least-once across restarts.
func (b *Bus) Subscribe(job, lastID string) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	after := b.cursor(job, lastID)
	replay := b.hist[job][after:]
	s := &Sub{
		bus: b,
		job: job,
		ch:  make(chan Event, len(replay)+subBuffer),
	}
	s.C = s.ch
	for _, e := range replay {
		s.ch <- e // fits: the channel was sized for the replay
	}
	if b.subs[job] == nil {
		b.subs[job] = make(map[*Sub]struct{})
	}
	b.subs[job][s] = struct{}{}
	return s
}

// cursor resolves lastID to an index into job's history: events after that
// index are to be (re)delivered.
func (b *Bus) cursor(job, lastID string) int {
	if lastID == "" {
		return 0
	}
	boot, seqStr, ok := strings.Cut(lastID, "-")
	if !ok || boot != b.boot {
		return 0 // foreign incarnation: replay everything
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		return 0
	}
	if n := len(b.hist[job]); seq > n {
		return n // client is ahead of us (clock skew on ids): deliver nothing stale
	}
	return seq
}

func (b *Bus) dropLocked(s *Sub) {
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs[s.job], s)
	close(s.ch)
}

// Close unsubscribes. Safe to call more than once; C is closed.
func (s *Sub) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.bus.dropLocked(s)
}

// Overflowed reports whether the bus cut this subscription loose because it
// fell behind. Valid after C is closed; resubscribe with the last seen id.
func (s *Sub) Overflowed() bool {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.overflow
}
