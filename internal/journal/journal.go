// Package journal provides a durable append-only JSONL journal for
// supervised job fleets and the daemon's write-ahead queue.
//
// Two layers live here. The generic layer appends arbitrary record types as
// JSON lines (AppendRecord) and reads them back (ReadRecords), tolerating the
// footprints of a crashed process: a torn final line (killed mid-append) and
// torn mid-file records (partially persisted pages followed by later
// successful appends) are skipped with a count rather than failing the read.
// With CreateSync every append is fsynced before it returns, which is what
// lets the daemon acknowledge a submission only once it is durable.
//
// The Entry layer on top is the supervision journal: every supervision
// event — an attempt starting, a contained flow.Incident, a retry with its
// backoff, a watchdog preemption, a deadline timeout, a quarantine, and the
// final outcome — is appended as one Entry line. The journal is the
// durability half of the supervisor: internal/sched decides what happens to
// a job, the journal records that it happened. internal/queue builds the
// aigred daemon's durable job queue on the generic layer.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"aigre/internal/flow"
)

// Event names recorded in journal entries.
const (
	EventAttempt    = "attempt"    // an attempt of a job started
	EventIncident   = "incident"   // a contained flow.Incident during an attempt
	EventRetry      = "retry"      // a failed/degraded attempt will be retried after Backoff
	EventPreempt    = "preempt"    // the watchdog preempted a stuck attempt
	EventTimeout    = "timeout"    // the per-job deadline expired
	EventQuarantine = "quarantine" // the job exhausted its retry budget and was quarantined
	EventDone       = "done"       // the job finished successfully
	EventFail       = "fail"       // the job failed with a permanent, non-retryable error
	EventCancel     = "cancel"     // the job was cancelled from outside (batch/engine shutdown)
)

// Entry is one supervision event: a supervision-journal line and, as the
// public aigre.JobEvent, what BatchOptions.OnEvent delivers. Seq orders
// entries within a single journal even when wall clocks of concurrent jobs
// collide; Time orders entries across journals and survives into post-mortem
// tooling. Job names the job; Attempt is the 1-based attempt ordinal when the
// event is tied to one; Event is one of the Event* names; Class is the
// failure classification of incident/retry events; Detail the human-readable
// note (error text, preemption cause); Backoff the delay before a retry.
type Entry struct {
	Seq     int64         `json:"seq"`
	Time    time.Time     `json:"time"`
	Job     string        `json:"job"`
	Attempt int           `json:"attempt,omitempty"`
	Event   string        `json:"event"`
	Class   string        `json:"class,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	Backoff time.Duration `json:"backoff_ns,omitempty"`

	// Incident carries the full contained-failure record for incident
	// events, so the journal alone reconstructs what degraded and why.
	Incident *flow.Incident `json:"incident,omitempty"`
}

// Journal is a concurrency-safe append-only JSONL writer. The zero value and
// a nil *Journal are both valid no-op journals, so call sites never need to
// guard Append behind a nil check.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	f    *os.File // non-nil when the journal owns the file
	sync bool     // fsync after every append
	seq  int64
	size int64       // bytes in the journal (file length when it owns one)
	obs  func(Entry) // observer of appended entries, under mu
}

// Create opens (creating or appending to) a journal file at path. Appends
// are flushed to the OS but not fsynced; use CreateSync for a write-ahead
// journal whose appends must survive power loss before they are acknowledged.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{w: f, f: f}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	return j, nil
}

// CreateSync is Create with fsync-on-append: every Append and AppendRecord
// returns only after the line is durably on disk. This is the write-ahead
// mode: an acknowledgment given after a CreateSync append cannot be lost to
// a crash.
func CreateSync(path string) (*Journal, error) {
	j, err := Create(path)
	if err != nil {
		return nil, err
	}
	j.sync = true
	return j, nil
}

// New wraps an arbitrary writer (a buffer in tests, a pipe in a daemon). With
// a nil writer the journal persists nothing — Append marshals nothing — but
// still stamps entries and feeds the observer: the live stream without a file.
func New(w io.Writer) *Journal {
	return &Journal{w: w}
}

// Observe registers fn to be called with every Entry the journal appends
// (after it is stamped and, when the journal has a writer, durably written,
// honoring the journal's sync mode). The callback runs under the journal's lock, so entries are observed
// in append order exactly once; it must not call back into the journal.
// This is the live half of the supervision stream: the file is the durable
// record, the observer feeds in-process subscribers such as the daemon's
// event bus. A nil journal ignores the call.
func (j *Journal) Observe(fn func(Entry)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.obs = fn
	j.mu.Unlock()
}

// Size returns the journal's size in bytes: the underlying file's length
// when the journal owns one (including pre-existing records it was appending
// to), otherwise the bytes written through this journal. A nil journal has
// size 0. Write-ahead users poll this for compaction thresholds.
func (j *Journal) Size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Append stamps the entry with the next sequence number and the current time
// (when unset) and writes it as one JSON line. Safe for concurrent use; a nil
// journal discards the entry. The line is written with a single Write call so
// concurrent appenders through an os.File never interleave bytes.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if j.w != nil {
		if err := j.appendLocked(e); err != nil {
			return err
		}
	}
	if j.obs != nil {
		j.obs(e)
	}
	return nil
}

// AppendRecord writes an arbitrary record as one JSON line, with the same
// atomicity and durability guarantees as Append. Unlike Append it stamps
// nothing: the caller owns the record type and its sequencing. This is the
// generic layer internal/queue builds its write-ahead log on.
func (j *Journal) AppendRecord(v any) error {
	if j == nil || j.w == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(v)
}

// appendLocked marshals v, writes it as one line, and honors the journal's
// sync mode. Callers hold j.mu.
func (j *Journal) appendLocked(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(line))
	if j.sync && j.f != nil {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Sync fsyncs the journal file now (a no-op without an underlying file).
func (j *Journal) Sync() error {
	if j == nil || j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close closes the underlying file, if the journal owns one.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	j.f = nil
	j.w = nil
	return err
}

// ReadRecords decodes JSONL records of type T from r. Torn records — the
// footprints of a crashed writer: a truncated final line, or a partially
// persisted mid-file line followed by later appends — are skipped, and the
// count of skipped lines is returned so callers can surface a warning.
// Only an unreadable stream is an error.
func ReadRecords[T any](r io.Reader) (recs []T, torn int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn record: skip to the next newline and keep going. A torn
			// *tail* is a process killed mid-append; a torn *mid-file* line
			// is a partial page writeback that later appends survived.
			torn++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, torn, fmt.Errorf("journal: %w", err)
	}
	return recs, torn, nil
}

// Read decodes supervision-journal lines from r, skipping torn records (both
// a truncated final line and torn mid-file lines) and returning how many
// were skipped.
func Read(r io.Reader) ([]Entry, int, error) {
	return ReadRecords[Entry](r)
}

// Replay reads a journal file back, tolerating torn records; the second
// return is the number of torn (skipped) lines.
func Replay(path string) ([]Entry, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}
