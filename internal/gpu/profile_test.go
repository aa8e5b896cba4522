package gpu

import (
	"strings"
	"testing"
)

// exercise runs a representative mix of device operations: plain launches,
// every synthetic primitive, and a sequential-overhead phase.
func exercise(d *Device) {
	d.Launch("test/kernel-a", 100, func(tid int) int64 { return int64(tid%3 + 1) })
	d.Launch1("test/kernel-b", 50, func(tid int) {})
	d.Launch("test/kernel-a", 10, func(tid int) int64 { return 2 })
	d.ExclusiveScan("test/scan", []int32{1, 2, 3, 4})
	d.SortUniqueInt32("test/sort", []int32{3, 1, 3, 2})
	Compact(d, "test/compact", []int{1, 2, 3}, []bool{true, false, true})
	d.AddOverhead("test/seq", 1234)
}

// TestProfileReconcilesWithStats checks the central invariant: the
// per-kernel rows are the device's whole account, so their total is exactly
// what exercise ran, field by field.
func TestProfileReconcilesWithStats(t *testing.T) {
	d := New(2)
	exercise(d)
	rows := d.Profile()
	if len(rows) < 6 {
		t.Fatalf("expected at least 6 distinct kernels, got %d: %v", len(rows), rows)
	}
	// Launches: kernel-a 2, kernel-b 1, the 4-element scan 2*log2(4), the
	// sort 5, the compaction's flags 1 + scan 2*ceil(log2(3)) + scatter 1.
	// Work: kernel-a 199+20, kernel-b 50, scan 2*4, sort 5*4, compaction
	// 3+2*3+3, and the sequential phase's 1234 ops, which are also its span.
	total := TotalProfile(rows)
	want := KernelProfile{Kernel: "TOTAL", Launches: 18, Threads: 193, Work: 1543, Span: 1255,
		Seq: 1234 * SequentialReference, Modeled: total.Modeled, Wall: total.Wall}
	if total != want {
		t.Errorf("profile total %+v, want %+v", total, want)
	}
	if total.Modeled <= total.Seq {
		t.Errorf("modeled %v does not exceed its sequential share %v", total.Modeled, total.Seq)
	}
}

func TestProfileSortedByModeledTime(t *testing.T) {
	d := New(1)
	exercise(d)
	rows := d.Profile()
	for i := 1; i < len(rows); i++ {
		if rows[i].Modeled > rows[i-1].Modeled {
			t.Fatalf("profile not sorted by modeled time: %v before %v", rows[i-1], rows[i])
		}
	}
}

func TestProfileMergesLaunchesByName(t *testing.T) {
	d := New(1)
	d.Launch("same", 5, func(int) int64 { return 1 })
	d.Launch("same", 7, func(int) int64 { return 1 })
	rows := d.Profile()
	if len(rows) != 1 {
		t.Fatalf("expected one row, got %v", rows)
	}
	if rows[0].Kernel != "same" || rows[0].Launches != 2 || rows[0].Threads != 12 {
		t.Errorf("merged row wrong: %+v", rows[0])
	}
}

// TestStatsSub checks that a phase's account is the total of its profile
// diff, and that the snapshot plus the diff is the whole account.
func TestStatsSub(t *testing.T) {
	d := New(1)
	d.Launch("a", 10, func(int) int64 { return 1 })
	before := d.Profile()
	d.Launch("b", 20, func(int) int64 { return 2 })
	diff := DiffProfile(d.Profile(), before)
	delta := TotalProfile(diff)
	if delta.Launches != 1 || delta.Threads != 20 || delta.Work != 40 {
		t.Errorf("diff total wrong: %+v", delta)
	}
	if again, after := TotalProfile(append(before, diff...)), TotalProfile(d.Profile()); again != after {
		t.Errorf("before + delta != after: %+v vs %+v", again, after)
	}
}

func TestDiffProfile(t *testing.T) {
	d := New(1)
	d.Launch("a", 10, func(int) int64 { return 1 })
	snap := d.Profile()
	d.Launch("a", 5, func(int) int64 { return 1 })
	d.Launch("b", 3, func(int) int64 { return 1 })
	diff := DiffProfile(d.Profile(), snap)
	if len(diff) != 2 {
		t.Fatalf("diff = %v", diff)
	}
	byName := map[string]KernelProfile{}
	for _, p := range diff {
		byName[p.Kernel] = p
	}
	if byName["a"].Launches != 1 || byName["a"].Threads != 5 {
		t.Errorf("diff row a wrong: %+v", byName["a"])
	}
	if byName["b"].Launches != 1 || byName["b"].Threads != 3 {
		t.Errorf("diff row b wrong: %+v", byName["b"])
	}
	// Unchanged snapshot diffs to nothing.
	if again := DiffProfile(d.Profile(), d.Profile()); len(again) != 0 {
		t.Errorf("self-diff not empty: %v", again)
	}
}

func TestFormatProfile(t *testing.T) {
	d := New(1)
	exercise(d)
	out := FormatProfile(d.Profile())
	if !strings.Contains(out, "test/kernel-a") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	// The TOTAL line must carry the exact modeled time of the device.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if modeled := TotalProfile(d.Profile()).Modeled; !strings.Contains(last, modeled.String()) {
		t.Errorf("TOTAL line %q does not contain exact modeled time %v", last, modeled)
	}
}
