// Package store is a content-addressed blob store for the aigred daemon's
// durable job results.
//
// Blobs are keyed by the lowercase hex SHA-256 of their contents and laid
// out as objects/<digest[:2]>/<digest>, git-style, so a directory never
// accumulates an unbounded sibling count. Writes are crash-safe: the blob is
// written to a temp file in the same directory, fsynced, and atomically
// renamed into place — a reader never observes a partial blob, and a crash
// mid-Put leaves at worst a temp file that the next GC sweeps. Identical
// contents dedup to one blob (the second Put is a no-op that returns the
// same digest).
//
// The store holds no index: the filesystem is the index, which is what lets
// it survive daemon restarts alongside the write-ahead queue log. GC walks
// the object tree and removes every blob whose digest the caller does not
// vouch for — the daemon calls it at startup with the digests referenced by
// the replayed queue, reaping blobs orphaned by a crash between Put and the
// outcome record.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Store is a content-addressed blob store rooted at one directory. All
// methods are safe for concurrent use: distinct blobs never collide, and
// concurrent Puts of the same contents race only on an atomic rename to the
// same final name.
type Store struct {
	dir string // <root>/objects
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: objects}, nil
}

// Digest returns the store key for data: lowercase hex SHA-256.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validDigest guards every path built from a caller-supplied digest, so a
// hostile "../../etc" key cannot escape the object tree.
func validDigest(d string) bool {
	if len(d) != 2*sha256.Size {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(digest string) string {
	return filepath.Join(s.dir, digest[:2], digest)
}

// Put stores data and returns its digest. The blob is durably on disk
// (written to a temp file, fsynced, atomically renamed) before Put returns,
// so a digest recorded in a write-ahead log after Put never dangles.
// Identical contents dedup: a blob that already exists is not rewritten.
func (s *Store) Put(data []byte) (string, error) {
	digest := Digest(data)
	final := s.path(digest)
	if _, err := os.Stat(final); err == nil {
		return digest, nil // dedup: identical contents already stored
	}
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "tmp-"+digest[:8]+"-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return digest, nil
}

// Get returns the blob with the given digest, or an os.ErrNotExist-wrapping
// error when it is absent (or the digest is malformed).
func (s *Store) Get(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: bad digest %q: %w", digest, os.ErrNotExist)
	}
	data, err := os.ReadFile(s.path(digest))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// GC removes every blob whose digest live does not report as referenced,
// together with temp files abandoned by a crashed Put. It returns how many
// blobs were removed. GC is safe against concurrent Puts of referenced
// contents only — the daemon runs it at startup, before serving.
func (s *Store) GC(live func(digest string) bool) (removed int, err error) {
	werr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, "tmp-") || !validDigest(name) || !live(name) {
			if rerr := os.Remove(path); rerr == nil {
				removed++
			}
		}
		return nil
	})
	if werr != nil {
		return removed, fmt.Errorf("store: gc: %w", werr)
	}
	return removed, nil
}

// Stats walks the store and returns the blob count and total byte size.
func (s *Store) Stats() (blobs int, bytes int64, err error) {
	werr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !validDigest(d.Name()) {
			return err
		}
		if info, ierr := d.Info(); ierr == nil {
			blobs++
			bytes += info.Size()
		}
		return nil
	})
	if werr != nil {
		return blobs, bytes, fmt.Errorf("store: %w", werr)
	}
	return blobs, bytes, nil
}
