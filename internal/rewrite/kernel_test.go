package rewrite

import (
	"reflect"
	"sync"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/truth"
)

// npnClasses returns the 222 canonical representatives of the 4-variable
// NPN classes, ascending.
func npnClasses() []uint16 {
	var isCanon [1 << 16]bool
	for tt := 0; tt < 1<<16; tt++ {
		c, _ := truth.Npn4Canon(uint16(tt))
		isCanon[c] = true
	}
	var cs []uint16
	for tt, ok := range isCanon {
		if ok {
			cs = append(cs, uint16(tt))
		}
	}
	return cs
}

// TestLibraryPublishOnce races 8 goroutines over every class of a fresh
// library: whoever synthesizes first publishes, and every caller must get
// that one entry — the same program backed by the same ops array.
func TestLibraryPublishOnce(t *testing.T) {
	classes := npnClasses()
	if len(classes) != 222 {
		t.Fatalf("%d NPN classes, want 222", len(classes))
	}
	const goroutines = 8
	lib := NewLibrary()
	got := make([][]libEntry, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		got[g] = make([]libEntry, len(classes))
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			// Different starting points, so every class sees contention.
			for k := range classes {
				i := (k + g*len(classes)/goroutines) % len(classes)
				prog, cost := lib.Best(classes[i])
				got[g][i] = libEntry{prog, cost}
			}
		}(g)
	}
	start.Done()
	done.Wait()
	for i, c := range classes {
		want := got[0][i]
		for g := 1; g < goroutines; g++ {
			e := got[g][i]
			if e.cost != want.cost || !reflect.DeepEqual(e.prog, want.prog) {
				t.Fatalf("class %04x: goroutine %d got a different program", c, g)
			}
			if len(e.prog.Ops) > 0 && &e.prog.Ops[0] != &want.prog.Ops[0] {
				t.Fatalf("class %04x: goroutine %d got a second copy of the entry", c, g)
			}
		}
	}
	if lib.Size() != 222 {
		t.Errorf("Size() = %d after touching every class, want 222", lib.Size())
	}
}

// evaluatedCuts counts, independently of the engines, the cuts the parallel
// evaluation kernel canonizes: every enumerated cut whose cone truth table
// exists, on the graph as Parallel prepares it.
func evaluatedCuts(a *aig.AIG, maxCuts int) int64 {
	work := a.Rehash()
	work.EnableStrash()
	work.EnableFanouts()
	s := new(evalScratch)
	var n int64
	work.ForEachAnd(func(id int32) {
		for _, c := range s.cs.Cuts4(work, id, maxCuts) {
			if _, ok := s.cs.ConeTruth16(work, aig.MakeLit(id, false), c.Leaves()); ok {
				n++
			}
		}
	})
	return n
}

// TestNpnCountsMatchEvaluatedCuts pins the number of cuts one parallel rw
// evaluation canonizes on multiplier, the count the NPN hit/miss counters
// reported while the cache kept them: cut enumeration and cone truth must
// not drift.
func TestNpnCountsMatchEvaluatedCuts(t *testing.T) {
	a := bench.Multiplier(32) // the suite's multiplier at scale 1
	if got := evaluatedCuts(a, 8); got != 76275 {
		t.Errorf("multiplier has %d evaluated cuts, the per-cut counters saw 76275", got)
	}
}

var sinkGain int

// BenchmarkEvaluateNode is the sequential evaluator over every node of
// multiplier x4 with warm caches: cut enumeration, cone truth, NPN lookup,
// library lookup, MFFC and dry run.
func BenchmarkEvaluateNode(b *testing.B) {
	work := bench.DoubleN(bench.Multiplier(32), 2).Rehash()
	work.EnableStrash()
	work.EnableFanouts()
	var nodes []int32
	work.ForEachAnd(func(id int32) { nodes = append(nodes, id) })
	opts := Options{}
	s := new(evalScratch)
	for _, id := range nodes {
		evaluateNode(work, id, opts, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand, _, _ := evaluateNode(work, nodes[i%len(nodes)], opts, s)
		sinkGain += int(cand.gain)
	}
}

// BenchmarkLibraryBestParallel is the library hit path under contention:
// every goroutine looks up the classes of a filled library.
func BenchmarkLibraryBestParallel(b *testing.B) {
	classes := npnClasses()
	lib := NewLibrary()
	for _, c := range classes {
		lib.Best(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i, cost := 0, 0
		for pb.Next() {
			_, c := lib.Best(classes[i%len(classes)])
			cost += c
			i++
		}
		_ = cost
	})
}
