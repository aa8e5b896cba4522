package gpu

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLaunchCoversAllThreads(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		d := New(workers)
		const n = 10000
		seen := make([]int32, n)
		d.Launch1("mark", n, func(tid int) {
			atomic.AddInt32(&seen[tid], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: thread %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestLaunchZeroAndSmall(t *testing.T) {
	d := New(4)
	d.Launch1("empty", 0, func(tid int) { t.Error("kernel ran for n=0") })
	ran := false
	d.Launch1("one", 1, func(tid int) { ran = tid == 0 })
	if !ran {
		t.Error("single-thread kernel did not run")
	}
}

func TestWorkSpanAccounting(t *testing.T) {
	d := New(1)
	d.Launch("ops", 4, func(tid int) int64 { return int64(tid + 1) })
	s := d.Stats()
	if s.Work != 1+2+3+4 {
		t.Errorf("Work = %d, want 10", s.Work)
	}
	if s.Span != 4 {
		t.Errorf("Span = %d, want 4 (max thread ops)", s.Span)
	}
	if s.Launches != 1 || s.Threads != 4 {
		t.Errorf("Launches/Threads = %d/%d", s.Launches, s.Threads)
	}
	if s.ModeledTime <= d.Model.LaunchOverhead {
		t.Errorf("modeled time must include op cost: %v", s.ModeledTime)
	}
}

func TestModeledTimeBrent(t *testing.T) {
	d := New(1)
	d.Model = CostModel{Processors: 10, OpTime: 1, LaunchOverhead: 0}
	d.Launch("brent", 25, func(tid int) int64 { return 2 })
	// work/procs + span = 50/10 + 2 = 7ns
	if got := d.Stats().ModeledTime; got != 7 {
		t.Errorf("ModeledTime = %v, want 7ns", got)
	}
}

func TestExclusiveScan(t *testing.T) {
	d := New(2)
	counts := []int32{3, 0, 1, 5, 2}
	offsets, total := d.ExclusiveScan("test/scan", counts)
	want := []int32{0, 3, 3, 4, 9}
	if total != 11 {
		t.Errorf("total = %d", total)
	}
	for i := range want {
		if offsets[i] != want[i] {
			t.Errorf("offsets = %v, want %v", offsets, want)
			break
		}
	}
	_, zero := d.ExclusiveScan("test/scan", nil)
	if zero != 0 {
		t.Errorf("empty scan total = %d", zero)
	}
}

func TestQuickScanMatchesSequential(t *testing.T) {
	d := New(4)
	f := func(raw []uint8) bool {
		counts := make([]int32, len(raw))
		for i, v := range raw {
			counts[i] = int32(v % 7)
		}
		offsets, total := d.ExclusiveScan("test/scan", counts)
		var sum int32
		for i, c := range counts {
			if offsets[i] != sum {
				return false
			}
			sum += c
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompact(t *testing.T) {
	d := New(3)
	src := []int{10, 11, 12, 13, 14, 15}
	keep := []bool{true, false, true, false, false, true}
	got := Compact(d, "test/compact", src, keep)
	want := []int{10, 12, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestSortUnique(t *testing.T) {
	d := New(2)
	got := d.SortUniqueInt32("test/sort", []int32{5, 1, 5, 3, 1, 1, 9})
	want := []int32{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

// TestSortUniqueLeavesInputUntouched pins the fixed aliasing contract: the
// caller's slice is neither reordered nor aliased by the result.
func TestSortUniqueLeavesInputUntouched(t *testing.T) {
	d := New(2)
	in := []int32{5, 1, 5, 3, 1, 1, 9}
	orig := append([]int32(nil), in...)
	got := d.SortUniqueInt32("test/sort", in)
	for i := range orig {
		if in[i] != orig[i] {
			t.Fatalf("input mutated: %v (was %v)", in, orig)
		}
	}
	got[0] = -77
	for i := range orig {
		if in[i] != orig[i] {
			t.Fatalf("result aliases input: %v after writing to result", in)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	d := New(1)
	d.Launch1("a", 10, func(int) {})
	var total Stats
	total.Add(d.Stats())
	total.Add(d.Stats())
	if total.Launches != 2 || total.Threads != 20 {
		t.Errorf("Add wrong: %+v", total)
	}
}

func TestLaunchParallelDeterministicOutput(t *testing.T) {
	// Parallel kernels writing disjoint slots must produce identical results
	// regardless of worker count.
	rng := rand.New(rand.NewSource(5))
	input := make([]int64, 5000)
	for i := range input {
		input[i] = rng.Int63n(1000)
	}
	run := func(workers int) []int64 {
		d := New(workers)
		out := make([]int64, len(input))
		d.Launch("square", len(input), func(tid int) int64 {
			out[tid] = input[tid] * input[tid]
			return 1
		})
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result at %d", i)
		}
	}
}

// TestMidChunkPanic: a panic inside a chunk (tid 300 of 1,000, the second
// 256-thread chunk) names its own tid, the threads that returned before it
// are accounted in Stats().Work, and the rest of its chunk never runs.
func TestMidChunkPanic(t *testing.T) {
	const n, bad = 1000, 300
	for _, w := range []int{1, 2} {
		d := New(w)
		ran := make([]atomic.Bool, n)
		var returned atomic.Int64
		err := d.TryLaunch("midchunk", n, func(tid int) int64 {
			ran[tid].Store(true)
			if tid == bad {
				panic("boom")
			}
			returned.Add(1)
			return 1
		})
		lerr, ok := err.(*LaunchError)
		if !ok || lerr.Tid != bad || lerr.Value != "boom" || len(lerr.Stack) == 0 {
			t.Fatalf("W=%d: err = %#v, want a *LaunchError at tid %d with its stack", w, err, bad)
		}
		if got := d.Stats().Work; got != returned.Load() {
			t.Errorf("W=%d: Work = %d, want the %d threads that returned", w, got, returned.Load())
		}
		for tid := range bad {
			if !ran[tid].Load() {
				t.Errorf("W=%d: thread %d before the panic did not run", w, tid)
			}
		}
		for tid := bad + 1; tid < 2*launchChunk; tid++ {
			if ran[tid].Load() {
				t.Errorf("W=%d: thread %d after the panic in its chunk ran", w, tid)
			}
		}
		if w == 1 && returned.Load() != bad {
			t.Errorf("W=1: %d threads returned, want the %d before the panic", returned.Load(), bad)
		}
	}
}
