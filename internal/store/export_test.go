package store

import "os"

// Has reports whether the blob exists.
func (s *Store) Has(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	_, err := os.Stat(s.path(digest))
	return err == nil
}
