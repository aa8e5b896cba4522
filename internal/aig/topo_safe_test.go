package aig

import (
	"strings"
	"testing"
)

// TestCompactSafeAcceptsValid pins that the checked path matches Compact on
// well-formed networks, including ones with deleted nodes.
func TestCompactSafeAcceptsValid(t *testing.T) {
	a := New(2)
	a.EnableStrash()
	keep := a.NewAnd(a.PI(0), a.PI(1))
	a.NewAnd(a.PI(0), a.PI(1).Not()) // dangling
	a.AddPO(keep.Not())
	a.EnableFanouts()
	a.SweepDangling()

	want, _ := a.Compact()
	got, _, err := a.CompactSafe()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAnds() != want.NumAnds() || got.NumPOs() != want.NumPOs() {
		t.Fatalf("CompactSafe shape %v, Compact shape %v", got.Stats(), want.Stats())
	}
}

func TestCompactSafeRejectsDeletedPORef(t *testing.T) {
	a := New(2)
	n := a.AddAndUnchecked(a.PI(0), a.PI(1))
	a.EnableFanouts()
	a.SweepDangling() // n has no references yet: deleted
	a.AddPO(n)        // PO now points at the deleted node
	if _, _, err := a.CompactSafe(); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("want deleted-node error, got %v", err)
	}
}

// TestCompactSafeRejectsCycle pins termination on cyclic input: the walk
// reports the cycle where an unchecked traversal would grow its stack
// without bound.
func TestCompactSafeRejectsCycle(t *testing.T) {
	a := New(1)
	first := a.ExtendSlots(2)
	a.SetFanins(first, MakeLit(first+1, false), a.PI(0))
	a.SetFanins(first+1, MakeLit(first, false), a.PI(0))
	a.AddPO(MakeLit(first, false))
	if _, _, err := a.CompactSafe(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestCompactSafeRejectsOutOfRangePO(t *testing.T) {
	a := New(1)
	a.AddPO(MakeLit(9, false))
	if _, _, err := a.CompactSafe(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}
