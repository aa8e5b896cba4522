package hashtable

import (
	"sync"
	"sync/atomic"
	"testing"

	"aigre/internal/gpu"
)

// TestConcurrentInsertAndDumpStress reads the whole key range with Query
// while writer goroutines insert disjoint parts of it with InsertUnique. Run
// with -race to validate the atomic loads and the value publication. Every
// intermediate read must see a present key with its published value, and the
// final read must find every key.
func TestConcurrentInsertAndDumpStress(t *testing.T) {
	const (
		writers       = 4
		keysPerWriter = 2000
		keys          = writers * keysPerWriter
	)
	ht := New(keys)
	var done int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= keysPerWriter; k++ {
				key := uint64(w*keysPerWriter + k)
				ht.InsertUnique(key, uint32(key*3))
			}
		}()
	}
	go func() {
		wg.Wait()
		atomic.StoreInt32(&done, 1)
	}()

	// read returns how many keys of the range are present, failing on a
	// present key whose value is not the one inserted.
	read := func() int {
		found := 0
		for k := uint64(1); k <= keys; k++ {
			v, ok := ht.Query(k)
			if !ok {
				continue
			}
			if v != uint32(k*3) {
				t.Fatalf("key %d has value %d, want %d", k, v, uint32(k*3))
			}
			found++
		}
		return found
	}
	for atomic.LoadInt32(&done) == 0 {
		read()
	}
	if got := read(); got != keys {
		t.Fatalf("final read found %d entries, want %d", got, keys)
	}
}

// TestConcurrentInsertAndDeviceDumpStress is the same race with the reader
// a device kernel: one thread queries each key of the range.
func TestConcurrentInsertAndDeviceDumpStress(t *testing.T) {
	const keys = 4000
	ht := New(keys)
	d := gpu.New(2)
	var done int32
	go func() {
		for k := 1; k <= keys; k++ {
			ht.InsertUnique(uint64(k), uint32(k))
		}
		atomic.StoreInt32(&done, 1)
	}()
	read := func() int64 {
		var found atomic.Int64
		d.Launch1("hashtable/read", keys, func(tid int) {
			k := uint64(tid + 1)
			if v, ok := ht.Query(k); ok {
				if v != uint32(k) {
					t.Errorf("device read saw key %d with value %d", k, v)
				}
				found.Add(1)
			}
		})
		return found.Load()
	}
	for atomic.LoadInt32(&done) == 0 {
		read()
	}
	if got := read(); got != keys {
		t.Fatalf("final device read found %d entries, want %d", got, keys)
	}
}
