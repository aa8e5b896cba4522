// Package queue is the aigred daemon's durable write-ahead job queue.
//
// Every state change is appended to a JSONL write-ahead log (via the
// internal/journal generic record layer, in fsync-on-append mode) *before*
// it takes effect in memory: a submission is durable before the client is
// acknowledged, a lease is durable before the job starts executing, and an
// outcome is durable before the job is reported terminal. On restart, Open
// replays the log and reconstructs the queue:
//
//   - jobs whose last record is pending are still pending — they run;
//   - jobs whose last record is leased were in flight when the process died —
//     they are checkpointed back to pending (with an explicit recovery
//     record) and re-run exactly once more;
//   - jobs with a terminal record (done, failed, quarantined, cancelled) are
//     never executed again, and their Session record remains queryable.
//
// Torn log records (a crash mid-append, or a partially persisted page) are
// skipped with a count, never failing recovery.
//
// # Weighted-fair leasing
//
// Lease order is multi-tenant fair, not globally priority-ordered: each
// client (Spec.Client) owns a pending queue ordered by priority then
// submission, and Lease picks between clients by stride scheduling — client
// c accumulates virtual time 1/weight(c) per lease, and the eligible client
// with the smallest virtual time leases next. A client with weight 3 leases
// three jobs for every one of a weight-1 client under saturation, and an
// idle client rejoining is aligned to the current virtual time rather than
// being allowed to bank credit and monopolize the runners. Per-client
// in-flight caps (Options.MaxInflight) make a client ineligible while it
// has that many jobs leased, regardless of weight. Priority therefore
// orders jobs *within* a client; it no longer lets one client starve the
// rest of the fleet.
//
// # Compaction
//
// The WAL would otherwise grow forever: every job contributes a submission
// record (with its full AIGER payload), a lease record per attempt, and a
// terminal record. Compact rewrites the log as one snapshot record per job
// — current state, lease count, session, and (for jobs that may still run)
// the payload; terminal jobs shed their payloads. The snapshot is written
// to a temp file, fsynced, and atomically renamed over the WAL, so a crash
// at any instant leaves either the complete old log or the complete new
// one — never a mix — and exactly-once lease accounting survives because
// snapshot records carry the accumulated lease count. Open compacts
// automatically when the replayed log carries redundant history;
// MaybeCompact applies a live size threshold once terminal records
// dominate.
package queue

import (
	"container/heap"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aigre/internal/journal"
	"aigre/internal/sched"
)

// State is a job's queue state. Submissions start Pending, move to Leased
// when handed to a runner, and end in exactly one terminal state.
type State string

const (
	// Pending: submitted (or checkpointed back), waiting for a runner.
	Pending State = "pending"
	// Leased: handed to a runner; in flight.
	Leased State = "leased"
	// Done: completed successfully (terminal).
	Done State = "done"
	// Failed: completed with a permanent error (terminal).
	Failed State = "failed"
	// Quarantined: withdrawn as poison by the supervisor (terminal).
	Quarantined State = "quarantined"
	// Cancelled: withdrawn before completion by an operator (terminal).
	Cancelled State = "cancelled"
)

// Terminal reports whether s is a final state: a job in a terminal state is
// never leased (hence never executed) again.
func (s State) Terminal() bool {
	switch s {
	case Done, Failed, Quarantined, Cancelled:
		return true
	}
	return false
}

// Valid reports whether s is one of the six queue states. Handlers use it to
// reject unknown ?state= filters.
func (s State) Valid() bool {
	return s == Pending || s == Leased || s.Terminal()
}

// Spec describes one submitted job. It is stored whole in the submission's
// WAL record, so a replayed queue can re-run the job without any other state.
type Spec struct {
	// ID is the queue-unique job id (the daemon mints these; see NewID).
	ID string `json:"id"`
	// Name labels the job in reports (default: the id).
	Name string `json:"name,omitempty"`
	// Script is the optimization script, e.g. "b; rw; rf; b" or a preset.
	Script string `json:"script"`
	// Priority orders leasing within the submitting client: higher first,
	// ties in submission order. Leasing across clients is weighted-fair —
	// see the package comment.
	Priority int `json:"priority,omitempty"`
	// Parallel selects the GPU-model engines.
	Parallel bool `json:"parallel,omitempty"`
	// Workers caps the job's device lease (0 = whole pool).
	Workers int `json:"workers,omitempty"`
	// Client identifies the submitter: admission quotas, fair-share weights,
	// and in-flight caps all key on this.
	Client string `json:"client,omitempty"`
	// Inject is a chaos-testing facility: deterministic fault plans in the
	// CLI's "kernel-pattern:N:panic|corrupt|stall" syntax, injected into the
	// job's device leases.
	Inject []string `json:"inject,omitempty"`
	// AIGER is the input network payload (binary or ASCII AIGER bytes;
	// base64-encoded in the JSON record). Compaction drops it from terminal
	// jobs, which can never run again.
	AIGER []byte `json:"aiger,omitempty"`
	// Submitted is the admission time.
	Submitted time.Time `json:"submitted"`
}

// Session is the queryable after-the-fact record of a job's execution,
// persisted in the terminal WAL record so it survives daemon restarts: the
// engine's job record as it is, plus where the optimized network went.
type Session struct {
	sched.Record
	// Result is the content address (SHA-256 digest) of the optimized AIGER
	// in the daemon's blob store, with its size; empty when the job produced
	// no output. The blob outlives the process alongside the WAL.
	Result      string `json:"result,omitempty"`
	ResultBytes int    `json:"result_bytes,omitempty"`
}

// Record is one WAL line: job ID moved to State. A record with a Spec is
// either a submission (Pending, Leases 0) or a compaction snapshot (any
// state, accumulated Leases); a Pending record without one is a checkpoint
// (drain requeue or crash recovery). Terminal records may carry the Session.
type Record struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	ID     string    `json:"id"`
	State  State     `json:"state"`
	Detail string    `json:"detail,omitempty"`
	// Leases carries the accumulated lease count on compaction snapshot
	// records, preserving exactly-once accounting across a compaction.
	Leases  int      `json:"leases,omitempty"`
	Spec    *Spec    `json:"spec,omitempty"`
	Session *Session `json:"session,omitempty"`
}

// Job is the in-memory view of a queued job.
type Job struct {
	Spec  Spec
	State State
	// Detail explains the latest transition (error text, recovery note).
	Detail string
	// Leases counts how many times the job was handed to a runner, across
	// every incarnation of the queue. A job completed before a crash keeps
	// Leases == 1 after recovery — the exactly-once evidence.
	Leases  int
	Session *Session
	Updated time.Time
}

// Stats counts jobs by state plus recovery diagnostics.
type Stats struct {
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"`
	Cancelled   int `json:"cancelled"`
	// Recovered counts leases abandoned by a crash that Open checkpointed
	// back to pending; Torn counts skipped torn WAL records.
	Recovered int `json:"recovered,omitempty"`
	Torn      int `json:"torn,omitempty"`
	// Compactions counts WAL snapshot-plus-truncate passes this incarnation
	// (including the one Open may run); WALBytes is the log's current size.
	Compactions int   `json:"compactions,omitempty"`
	WALBytes    int64 `json:"wal_bytes,omitempty"`
}

// Active is the queue depth: jobs not yet in a terminal state.
func (s Stats) Active() int { return s.Pending + s.Leased }

func (s Stats) terminal() int { return s.Done + s.Failed + s.Quarantined + s.Cancelled }

// ErrSaturated is returned by Submit when the queue is at MaxDepth.
var ErrSaturated = errors.New("queue: saturated")

// NewID mints a random job id ("j-" + 12 hex chars). Collisions are
// rejected by Submit, so a (vanishingly unlikely) duplicate is an error,
// not a silent overwrite.
func NewID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than panicking a daemon.
		return fmt.Sprintf("j-%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Options configures Open.
type Options struct {
	// MaxDepth bounds the number of active (pending + leased) jobs; Submit
	// beyond it returns ErrSaturated (0 = unbounded).
	MaxDepth int
	// Weights are the per-client fair-share weights (see the package
	// comment); the "*" entry applies to clients not listed (default 1). A
	// weight-3 client leases three jobs for each job of a weight-1 client
	// while both have work pending.
	Weights map[string]int
	// MaxInflight caps how many jobs a client may have leased at once; the
	// "*" entry applies to clients not listed (default unlimited). A
	// capped-out client is simply ineligible to lease, its jobs stay
	// durably pending, and other clients proceed.
	MaxInflight map[string]int
	// CompactBytes arms MaybeCompact: once the WAL exceeds this many bytes
	// and terminal jobs outnumber active ones, MaybeCompact snapshots and
	// truncates it (0 = live compaction off; Open-time compaction still
	// runs when the log carries redundant history).
	CompactBytes int64
	// Observer, when non-nil, is called — under the queue lock, in WAL
	// order, exactly once each — for every record that changes queue state:
	// replayed records during Open, then live appends. Compaction snapshots
	// are rewrites of already-observed state and are not re-observed. The
	// daemon's event bus hangs off this.
	Observer func(Record)
}

// Queue is a durable, concurrency-safe job queue. All methods are safe for
// concurrent use.
type Queue struct {
	mu       sync.Mutex
	wal      *journal.Journal
	path     string
	jobs     map[string]*Job
	order    []string // submission order, for listing
	clients  map[string]*clientQueue
	vtime    float64 // stride virtual time of the latest lease
	seq      int64
	maxDepth int
	opts     Options
	stats    Stats
}

// clientQueue is one tenant's scheduling state: its pending jobs (priority
// then submission order), its stride pass, and its in-flight count.
type clientQueue struct {
	name     string
	pending  pendingHeap
	pass     float64
	inflight int
}

// Open replays the WAL at path (creating it when missing) and returns the
// reconstructed queue. Leases abandoned by a crash are checkpointed back to
// pending with an explicit recovery record, so the in-flight jobs of a dead
// daemon re-run exactly once more; terminal jobs are never re-run. When the
// replayed log carries redundant history (any job with more than one record,
// or torn damage), Open finishes by compacting it.
func Open(path string, opts Options) (*Queue, error) {
	q := &Queue{
		path:     path,
		jobs:     make(map[string]*Job),
		clients:  make(map[string]*clientQueue),
		maxDepth: opts.MaxDepth,
		opts:     opts,
	}
	replayed := 0
	if f, err := os.Open(path); err == nil {
		recs, torn, rerr := journal.ReadRecords[Record](f)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("queue: replay %s: %w", path, rerr)
		}
		q.stats.Torn = torn
		replayed = len(recs)
		for _, rec := range recs {
			q.apply(rec)
			if rec.Seq > q.seq {
				q.seq = rec.Seq
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("queue: %w", err)
	}
	wal, err := journal.CreateSync(path)
	if err != nil {
		return nil, err
	}
	q.wal = wal
	// Crash recovery: a job still marked leased was in flight when the
	// previous process died. Checkpoint it back to pending — durably, so a
	// second crash before it re-runs changes nothing.
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != Leased {
			continue
		}
		if err := q.appendLocked(Record{ID: id, State: Pending,
			Detail: "recovered: lease abandoned by crash"}); err != nil {
			q.wal.Close()
			return nil, err
		}
		q.stats.Recovered++
	}
	// Restart compaction: any redundant history (a job with several records,
	// torn damage, or terminal jobs still carrying payloads) is collapsed to
	// one snapshot record per job before the daemon starts serving.
	if replayed > len(q.jobs) || q.stats.Torn > 0 {
		if err := q.compactLocked(); err != nil {
			q.wal.Close()
			return nil, err
		}
	}
	return q, nil
}

// apply folds one replayed record into the in-memory state. Replay is
// deliberately forgiving: records that do not fit the state machine (a lease
// of a terminal job, an unknown id) are ignored — the WAL is evidence, not
// an oracle, and a terminal state always wins. Records that change state are
// passed to the observer, in order.
func (q *Queue) apply(rec Record) {
	j := q.jobs[rec.ID]
	switch {
	case rec.Spec != nil:
		// Submission (pending, no leases) or compaction snapshot (any state,
		// accumulated leases).
		if j != nil {
			return // duplicate submission record
		}
		j = &Job{Spec: *rec.Spec, State: rec.State, Detail: rec.Detail,
			Leases: rec.Leases, Session: rec.Session, Updated: rec.Time}
		q.jobs[rec.ID] = j
		q.order = append(q.order, rec.ID)
		q.count(rec.State, +1)
		switch rec.State {
		case Pending:
			q.pushPending(j, rec.Seq)
		case Leased:
			q.client(j.Spec.Client).inflight++
		}
	case j == nil || j.State.Terminal():
		// Unknown job or post-terminal record: ignore.
		return
	case rec.State == Leased:
		q.count(j.State, -1)
		q.count(Leased, +1)
		j.State = Leased
		j.Leases++
		j.Updated = rec.Time
		cq := q.client(j.Spec.Client)
		cq.pending.remove(rec.ID)
		cq.inflight++
	case rec.State == Pending: // checkpoint / recovery
		if j.State == Leased {
			q.client(j.Spec.Client).inflight--
		}
		q.count(j.State, -1)
		q.count(Pending, +1)
		j.State = Pending
		j.Detail = rec.Detail
		j.Updated = rec.Time
		q.pushPending(j, rec.Seq)
	case rec.State.Terminal():
		if j.State == Leased {
			q.client(j.Spec.Client).inflight--
		}
		q.count(j.State, -1)
		q.count(rec.State, +1)
		j.State = rec.State
		j.Detail = rec.Detail
		j.Session = rec.Session
		j.Updated = rec.Time
		q.client(j.Spec.Client).pending.remove(rec.ID)
	default:
		return
	}
	if q.opts.Observer != nil {
		q.opts.Observer(rec)
	}
}

// client returns (creating if needed) the scheduling state for name.
func (q *Queue) client(name string) *clientQueue {
	cq := q.clients[name]
	if cq == nil {
		cq = &clientQueue{name: name, pass: q.vtime}
		q.clients[name] = cq
	}
	return cq
}

// pushPending queues j on its client's pending heap. A client going from
// idle to active is aligned to the current virtual time so it cannot bank
// credit while idle and then monopolize the runners.
func (q *Queue) pushPending(j *Job, seq int64) {
	cq := q.client(j.Spec.Client)
	if cq.pending.Len() == 0 && cq.pass < q.vtime {
		cq.pass = q.vtime
	}
	heap.Push(&cq.pending, pendingRef{id: j.Spec.ID, priority: j.Spec.Priority, seq: seq})
}

// weightOf returns the fair-share weight of a client (>= 1).
func (q *Queue) weightOf(name string) int {
	if w := perClient(q.opts.Weights, name); w > 0 {
		return w
	}
	return 1
}

// maxInflightOf returns the client's lease cap (0 = unlimited).
func (q *Queue) maxInflightOf(name string) int {
	return perClient(q.opts.MaxInflight, name)
}

// perClient looks a client up in a per-client table, falling back to the
// table's "*" entry (0 when neither is set).
func perClient(m map[string]int, name string) int {
	if v, ok := m[name]; ok {
		return v
	}
	return m["*"]
}

func (q *Queue) count(s State, d int) {
	switch s {
	case Pending:
		q.stats.Pending += d
	case Leased:
		q.stats.Leased += d
	case Done:
		q.stats.Done += d
	case Failed:
		q.stats.Failed += d
	case Quarantined:
		q.stats.Quarantined += d
	case Cancelled:
		q.stats.Cancelled += d
	}
}

// appendLocked durably appends a record (stamping seq and time) and folds it
// into memory. The WAL write happens first: if it fails, the state does not
// change and the caller reports the error — write-ahead, never behind.
func (q *Queue) appendLocked(rec Record) error {
	q.seq++
	rec.Seq = q.seq
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if err := q.wal.AppendRecord(rec); err != nil {
		q.seq--
		return err
	}
	q.apply(rec)
	return nil
}

// Submit durably admits a job: the submission record is fsynced before
// Submit returns, so an acknowledgment built on it cannot be lost. Returns
// ErrSaturated at MaxDepth and an error on a duplicate or empty id.
func (q *Queue) Submit(spec Spec) error {
	if spec.ID == "" {
		return errors.New("queue: empty job id")
	}
	if spec.Submitted.IsZero() {
		spec.Submitted = time.Now()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, dup := q.jobs[spec.ID]; dup {
		return fmt.Errorf("queue: duplicate job id %q", spec.ID)
	}
	if q.maxDepth > 0 && q.stats.Active() >= q.maxDepth {
		return fmt.Errorf("%w: %d active jobs (max %d)", ErrSaturated, q.stats.Active(), q.maxDepth)
	}
	return q.appendLocked(Record{ID: spec.ID, State: Pending, Spec: &spec})
}

// Lease durably hands the next pending job to a runner, chosen weighted-fair
// across clients (stride scheduling; see the package comment) and by
// priority then submission order within the chosen client. The lease record
// hits disk before the spec is returned, so a crash during execution is
// recoverable: replay sees the lease and checkpoints the job back to
// pending. Returns (nil, nil) when no client is eligible — nothing pending,
// or every client with pending work is at its in-flight cap; a non-nil
// error means the WAL append failed and nothing was leased.
func (q *Queue) Lease() (*Spec, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		cq := q.pickClientLocked()
		if cq == nil {
			return nil, nil
		}
		for cq.pending.Len() > 0 {
			ref := cq.pending[0]
			j := q.jobs[ref.id]
			if j == nil || j.State != Pending {
				heap.Pop(&cq.pending) // stale ref (requeued under a newer one)
				continue
			}
			if err := q.appendLocked(Record{ID: ref.id, State: Leased}); err != nil {
				return nil, err
			}
			q.vtime = cq.pass
			cq.pass += 1 / float64(q.weightOf(cq.name))
			spec := j.Spec
			return &spec, nil
		}
		// The picked client's heap held only stale refs; re-pick.
	}
}

// pickClientLocked returns the eligible client with the smallest stride
// pass: it has pending refs and is under its in-flight cap. Ties break by
// name so the choice is deterministic across map iteration orders.
func (q *Queue) pickClientLocked() *clientQueue {
	var best *clientQueue
	for _, cq := range q.clients {
		if cq.pending.Len() == 0 {
			continue
		}
		if m := q.maxInflightOf(cq.name); m > 0 && cq.inflight >= m {
			continue
		}
		if best == nil || cq.pass < best.pass || (cq.pass == best.pass && cq.name < best.name) {
			best = cq
		}
	}
	return best
}

// Resolve durably records a leased job's terminal outcome together with its
// queryable session record. Resolving a job that is not leased is an error —
// it would mean a runner finished a job it never held.
func (q *Queue) Resolve(id string, state State, detail string, sess *Session) error {
	if !state.Terminal() {
		return fmt.Errorf("queue: Resolve to non-terminal state %q", state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return fmt.Errorf("queue: resolve of unknown job %q", id)
	}
	if j.State != Leased {
		return fmt.Errorf("queue: resolve of job %q in state %q (want leased)", id, j.State)
	}
	return q.appendLocked(Record{ID: id, State: state, Detail: detail, Session: sess})
}

// Requeue durably checkpoints a leased job back to pending — the drain path:
// an in-flight job that could not finish before the drain deadline goes back
// so the next daemon incarnation runs it.
func (q *Queue) Requeue(id, detail string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return fmt.Errorf("queue: requeue of unknown job %q", id)
	}
	if j.State != Leased {
		return fmt.Errorf("queue: requeue of job %q in state %q (want leased)", id, j.State)
	}
	return q.appendLocked(Record{ID: id, State: Pending, Detail: detail})
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Filter selects jobs for List. The zero Filter matches everything.
type Filter struct {
	// State, when non-zero, matches only jobs in that state.
	State State
	// Client, when non-empty, matches only that client's jobs.
	Client string
	// Limit bounds the result to the most recently submitted n matching
	// jobs (0 = no bound). A long-lived daemon accumulates terminal
	// sessions without end; listings must not return them all by default.
	Limit int
}

// List returns snapshots of the matching jobs in submission order, bounded
// to the most recent Filter.Limit.
func (q *Queue) List(f Filter) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	matching := make([]string, 0, len(q.order))
	for _, id := range q.order {
		j := q.jobs[id]
		if f.State != "" && j.State != f.State {
			continue
		}
		if f.Client != "" && j.Spec.Client != f.Client {
			continue
		}
		matching = append(matching, id)
	}
	if f.Limit > 0 && len(matching) > f.Limit {
		matching = matching[len(matching)-f.Limit:]
	}
	out := make([]Job, 0, len(matching))
	for _, id := range matching {
		out = append(out, *q.jobs[id])
	}
	return out
}

// Jobs returns snapshots of every job in submission order.
func (q *Queue) Jobs() []Job {
	return q.List(Filter{})
}

// Stats returns the per-state counts and recovery diagnostics.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.WALBytes = q.wal.Size()
	return st
}

// Compact snapshots the queue into a fresh WAL and atomically replaces the
// old one: one record per job carrying its current state, accumulated lease
// count, session, and — only for jobs that may still run — the AIGER
// payload. The snapshot is fully written and fsynced before the rename, so
// a crash mid-compaction leaves either the old log or the new one intact,
// and replaying either yields the same queue with the same lease counts.
func (q *Queue) Compact() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.compactLocked()
}

// MaybeCompact runs Compact when the WAL has outgrown Options.CompactBytes
// and terminal jobs outnumber active ones (so the snapshot actually
// shrinks it). It reports whether a compaction ran.
func (q *Queue) MaybeCompact() (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.opts.CompactBytes <= 0 || q.wal.Size() < q.opts.CompactBytes {
		return false, nil
	}
	if q.stats.terminal() <= q.stats.Active() {
		return false, nil
	}
	if err := q.compactLocked(); err != nil {
		return false, err
	}
	return true, nil
}

func (q *Queue) compactLocked() error {
	tmp := q.path + ".compact"
	os.Remove(tmp) // a stale temp from a crashed compaction is garbage
	snap, err := journal.Create(tmp)
	if err != nil {
		return fmt.Errorf("queue: compact: %w", err)
	}
	for _, id := range q.order {
		j := q.jobs[id]
		q.seq++
		rec := Record{Seq: q.seq, Time: j.Updated, ID: id, State: j.State,
			Detail: j.Detail, Leases: j.Leases, Session: j.Session}
		if rec.Time.IsZero() {
			rec.Time = j.Spec.Submitted
		}
		spec := j.Spec
		if j.State.Terminal() {
			spec.AIGER = nil // terminal jobs never re-run; shed the payload
		}
		rec.Spec = &spec
		if err := snap.AppendRecord(rec); err != nil {
			snap.Close()
			os.Remove(tmp)
			return fmt.Errorf("queue: compact: %w", err)
		}
	}
	if err := snap.Sync(); err != nil {
		snap.Close()
		os.Remove(tmp)
		return fmt.Errorf("queue: compact: %w", err)
	}
	if err := snap.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("queue: compact: %w", err)
	}
	// Atomic cutover: after the rename the WAL is wholly the snapshot;
	// before it, wholly the old log. fsync the directory so the rename
	// itself survives power loss.
	if err := q.wal.Close(); err != nil {
		return fmt.Errorf("queue: compact: %w", err)
	}
	if err := os.Rename(tmp, q.path); err != nil {
		// Old WAL is still in place; reopen it so the queue stays usable.
		if wal, rerr := journal.CreateSync(q.path); rerr == nil {
			q.wal = wal
		}
		return fmt.Errorf("queue: compact: %w", err)
	}
	syncDir(filepath.Dir(q.path))
	wal, err := journal.CreateSync(q.path)
	if err != nil {
		return fmt.Errorf("queue: compact: %w", err)
	}
	q.wal = wal
	q.stats.Compactions++
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's new name is durable.
// Best-effort: some filesystems refuse directory fsyncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close closes the WAL. The queue must not be used afterwards.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wal.Close()
}

// pendingRef orders a client's pending heap: highest priority first, then
// WAL sequence (submission / requeue order). A job requeued later keeps its
// place by priority but goes behind jobs already waiting at that priority.
type pendingRef struct {
	id       string
	priority int
	seq      int64
}

type pendingHeap []pendingRef

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(pendingRef)) }
func (h *pendingHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *pendingHeap) remove(id string) {
	for i := range *h {
		if (*h)[i].id == id {
			heap.Remove(h, i)
			return
		}
	}
}
