// Package journal provides a durable append-only JSONL log: the daemon's
// write-ahead queue (internal/queue) and the supervision journal behind
// BatchOptions.JournalPath both append through it.
//
// AppendRecord writes any record type as one JSON line and ReadRecords reads
// them back, tolerating the footprints of a crashed process: a torn final
// line (killed mid-append) and torn mid-file records (partially persisted
// pages followed by later successful appends) are skipped with a count rather
// than failing the read. With CreateSync every append is fsynced before it
// returns, which is what lets the daemon acknowledge a submission only once
// it is durable. The journal stamps nothing: the caller owns the record type
// and its sequencing.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is a concurrency-safe append-only JSONL file. A nil *Journal is a
// valid no-op journal, so call sites never need to guard an append behind a
// nil check. A journal refuses every append once closed (ErrClosed), so a
// write-ahead caller never takes a lost line for a durable one.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	sync   bool  // fsync after every append
	closed bool  // Close released the file
	size   int64 // file length in bytes
}

// ErrClosed is what appends to a closed journal report.
var ErrClosed = errors.New("journal: closed")

// Create opens (creating or appending to) a journal file at path. Appends
// are flushed to the OS but not fsynced; use CreateSync for a write-ahead
// journal whose appends must survive power loss before they are acknowledged.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	return j, nil
}

// CreateSync is Create with fsync-on-append: every AppendRecord returns only
// after the line is durably on disk. This is the write-ahead mode: an
// acknowledgment given after a CreateSync append cannot be lost to a crash.
func CreateSync(path string) (*Journal, error) {
	j, err := Create(path)
	if err != nil {
		return nil, err
	}
	j.sync = true
	return j, nil
}

// Size returns the journal file's length in bytes, including records that
// predate this journal handle; a nil journal has size 0. Write-ahead users
// poll this for compaction thresholds.
func (j *Journal) Size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// AppendRecord writes v as one JSON line, with a single Write call so
// concurrent appenders never interleave bytes, and honors the journal's sync
// mode. Safe for concurrent use; a nil journal discards the record.
func (j *Journal) AppendRecord(v any) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(line))
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	return nil
}

// Sync fsyncs the journal file now.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close closes the journal file; appends after it report ErrClosed, and a
// second Close is a no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// ReadRecords decodes JSONL records of type T from r. A line is as long as
// its record: there is no cap, so any record an append could write reads
// back. Torn records — the footprints of a crashed writer: a truncated final
// line, or a partially persisted mid-file line followed by later appends —
// are skipped, and the count of skipped lines is returned so callers can
// surface a warning. Only an unreadable stream is an error.
func ReadRecords[T any](r io.Reader) (recs []T, torn int, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var line []byte // reused: Unmarshal keeps no reference to its input
	for {
		chunk, rerr := br.ReadSlice('\n')
		line = append(line, chunk...)
		if rerr == bufio.ErrBufferFull {
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return recs, torn, fmt.Errorf("journal: %w", rerr)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var rec T
			if err := json.Unmarshal(line, &rec); err != nil {
				// Torn record: skip to the next newline and keep going. A
				// torn *tail* is a process killed mid-append; a torn
				// *mid-file* line is a partial page writeback that later
				// appends survived.
				torn++
			} else {
				recs = append(recs, rec)
			}
		}
		if rerr == io.EOF {
			return recs, torn, nil
		}
		line = line[:0]
	}
}
