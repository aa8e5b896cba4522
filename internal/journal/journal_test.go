package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rec is the record type the tests append.
type rec struct {
	Job string `json:"job"`
	N   int    `json:"n"`
}

// readFile reads the records of the journal file at path.
func readFile(t *testing.T, path string) ([]rec, int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, torn, err := ReadRecords[rec](f)
	if err != nil {
		t.Fatal(err)
	}
	return got, torn
}

// appendAll appends recs to j, failing the test on the first error.
func appendAll(t *testing.T, j *Journal, recs ...rec) {
	t.Helper()
	for _, r := range recs {
		if err := j.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNilJournalIsNoOp checks that a nil journal silently discards appends,
// so call sites never guard against an unconfigured journal.
func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if err := j.AppendRecord(rec{"x", 1}); err != nil {
		t.Fatalf("nil journal AppendRecord: %v", err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("nil journal Sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil journal Close: %v", err)
	}
	if j.Size() != 0 {
		t.Fatal("nil journal has nonzero size")
	}
}

// TestClosedJournalRefusesAppends checks that a journal reports every append
// and sync after Close as an error, and that a second Close is harmless.
func TestClosedJournalRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := CreateSync(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, rec{"x", 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRecord(rec{"x", 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendRecord after Close: %v, want ErrClosed", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != `{"job":"x","n":1}`+"\n" {
		t.Errorf("file after refused appends: %q", data)
	}
}

// TestTruncatedTailTolerated checks that a torn final line — a process killed
// mid-append — is skipped (and counted) on read while full lines before it
// survive.
func TestTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, rec{"a", 1}, rec{"a", 2}, rec{"a", 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"a","n`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, torn := readFile(t, path)
	if len(got) != 3 || got[2] != (rec{"a", 3}) {
		t.Fatalf("read %+v, want the 3 whole records", got)
	}
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
}

// TestCorruptMiddleSkippedWithCount checks that a torn mid-file record — a
// partial page writeback that later successful appends survived — is skipped
// with a count instead of failing the whole read.
func TestCorruptMiddleSkippedWithCount(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"job":"a","n":1}` + "\n")
	b.WriteString(`{"job":"a","n":` + "\n") // torn mid-file
	b.WriteString("not json at all\n")      // torn mid-file
	b.WriteString(`{"job":"a","n":4}` + "\n")
	got, torn, err := ReadRecords[rec](strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("mid-file torn record not tolerated: %v", err)
	}
	if torn != 2 {
		t.Fatalf("torn = %d, want 2", torn)
	}
	if len(got) != 2 || got[0].N != 1 || got[1].N != 4 {
		t.Fatalf("surviving records wrong: %+v", got)
	}
}

// TestAppendSyncDurable checks the fsync-on-append path: a CreateSync journal
// produces a file whose every line is already visible (and whole) without
// Close.
func TestAppendSyncDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.jsonl")
	j, err := CreateSync(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, rec{"a", 1}, rec{"a", 2})
	// Read back while the journal is still open: the appends must already be
	// durable, not sitting in a buffer waiting for Close.
	got, torn := readFile(t, path)
	if torn != 0 || len(got) != 2 || got[0].N != 1 || got[1].N != 2 {
		t.Fatalf("read-before-close: torn=%d records %+v", torn, got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRoundTrip checks that arbitrary record types round-trip line by
// line, as the daemon's write-ahead queue relies on.
func TestRecordRoundTrip(t *testing.T) {
	type wal struct {
		ID    string `json:"id"`
		State string `json:"state"`
		N     int    `json:"n"`
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, err := CreateSync(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []wal{{"j1", "pending", 1}, {"j1", "leased", 2}, {"j1", "done", 3}}
	for _, r := range want {
		if err := j.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, torn, err := ReadRecords[wal](f)
	if err != nil || torn != 0 {
		t.Fatalf("ReadRecords: torn=%d err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentAppend hammers one journal from many goroutines under -race
// and checks every record lands whole, exactly once.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.AppendRecord(rec{strings.Repeat("w", w+1), i}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := readFile(t, path)
	if torn != 0 {
		t.Fatalf("torn = %d on a clean journal", torn)
	}
	if len(got) != writers*per {
		t.Fatalf("read %d records, want %d", len(got), writers*per)
	}
	seen := make(map[rec]bool, len(got))
	for _, r := range got {
		if seen[r] {
			t.Fatalf("duplicate record %+v", r)
		}
		seen[r] = true
	}
}

// TestSizeAcrossReopen checks the byte accounting write-ahead users poll for
// compaction: Size tracks the file length, including records that predate
// the current journal handle.
func TestSizeAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, rec{"a", 1}, rec{"a", 2}, rec{"a", 3})
	sz := j.Size()
	if sz <= 0 {
		t.Fatalf("Size = %d after 3 appends", sz)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != sz {
		t.Fatalf("Size = %d, file length %v (err %v)", sz, st.Size(), err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening the same file seeds Size from the existing length.
	j2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Size() != sz {
		t.Fatalf("reopened Size = %d, want %d", j2.Size(), sz)
	}
}
