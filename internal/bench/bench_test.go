package bench

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
)

// evalWords evaluates the AIG on concrete input words and returns the PO
// bits (little-endian over all POs).
func evalWords(a *aig.AIG, widths []int, values []uint64) []bool {
	in := make([]bool, a.NumPIs())
	idx := 0
	for w, width := range widths {
		for i := 0; i < width; i++ {
			in[idx] = values[w]>>uint(i)&1 != 0
			idx++
		}
	}
	return a.EvalOnce(in)
}

func toUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestAdder(t *testing.T) {
	const w = 16
	a := Adder(w)
	f := func(x, y uint16) bool {
		out := evalWords(a, []int{w, w}, []uint64{uint64(x), uint64(y)})
		sum := toUint(out[:w])
		carry := out[w]
		want := uint64(x) + uint64(y)
		return sum == want&0xFFFF && carry == (want>>16 != 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiplier(t *testing.T) {
	const w = 10
	a := Multiplier(w)
	f := func(x, y uint16) bool {
		xv, yv := uint64(x)&0x3FF, uint64(y)&0x3FF
		out := evalWords(a, []int{w, w}, []uint64{xv, yv})
		return toUint(out[:2*w]) == xv*yv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSquare(t *testing.T) {
	const w = 10
	a := Square(w)
	f := func(x uint16) bool {
		xv := uint64(x) & 0x3FF
		out := evalWords(a, []int{w}, []uint64{xv})
		return toUint(out[:2*w]) == xv*xv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDiv(t *testing.T) {
	const w = 12
	a := Div(w)
	f := func(x, y uint16) bool {
		xv, yv := uint64(x)&0xFFF, uint64(y)&0xFFF
		if yv == 0 {
			return true // division by zero unspecified
		}
		out := evalWords(a, []int{w, w}, []uint64{xv, yv})
		q := toUint(out[:w])
		r := toUint(out[w : 2*w])
		return q == xv/yv && r == xv%yv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSqrtCircuit(t *testing.T) {
	const w = 12
	a := Sqrt(w)
	f := func(x uint16) bool {
		xv := uint64(x) & 0xFFF
		out := evalWords(a, []int{w}, []uint64{xv})
		got := toUint(out[:(w+1)/2])
		want := uint64(isqrt(xv))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func isqrt(x uint64) uint64 {
	var r uint64
	for r*r <= x {
		r++
	}
	return r - 1
}

func TestHypFunction(t *testing.T) {
	const w = 8
	a := Hyp(w)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		x := uint64(rng.Intn(1 << w))
		y := uint64(rng.Intn(1 << w))
		out := evalWords(a, []int{w, w}, []uint64{x, y})
		got := toUint(out)
		want := isqrt(x*x + y*y)
		if got != want {
			t.Fatalf("hyp(%d,%d) = %d, want %d", x, y, got, want)
		}
	}
}

func TestVoterMajority(t *testing.T) {
	const n = 15
	a := Voter(n)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		in := make([]bool, n)
		count := 0
		for i := range in {
			in[i] = rng.Intn(2) == 0
			if in[i] {
				count++
			}
		}
		got := a.EvalOnce(in)[0]
		want := count > n/2
		if got != want {
			t.Fatalf("voter(%v) = %v, want %v (count %d)", in, got, want, count)
		}
	}
}

func TestLog2IntegerPart(t *testing.T) {
	const w = 16
	a := Log2(w)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		x := uint64(rng.Intn(1<<w-1) + 1)
		out := evalWords(a, []int{w}, []uint64{x})
		// First ceil(log2(w)) bits: MSB index; next bit: found flag.
		idxBits := bits.Len(uint(w - 1))
		got := toUint(out[:idxBits])
		found := out[idxBits]
		want := uint64(bits.Len64(x) - 1)
		if !found || got != want {
			t.Fatalf("log2(%d): idx=%d found=%v, want %d", x, got, found, want)
		}
	}
}

func TestPopcount(t *testing.T) {
	b := NewBuilder(13)
	count := b.Popcount(b.Input(0))
	b.Output(count)
	a := finish(b)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		x := uint64(rng.Intn(1 << 13))
		out := evalWords(a, []int{13}, []uint64{x})
		if toUint(out) != uint64(bits.OnesCount64(x)) {
			t.Fatalf("popcount(%b) = %d", x, toUint(out))
		}
	}
}

func TestBarrelShifter(t *testing.T) {
	b := NewBuilder(16, 4)
	b.Output(b.BarrelShiftLeft(b.Input(0), b.Input(1)))
	b.Output(b.BarrelShiftRight(b.Input(0), b.Input(1)))
	a := finish(b)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		x := uint64(rng.Intn(1 << 16))
		s := uint64(rng.Intn(16))
		out := evalWords(a, []int{16, 4}, []uint64{x, s})
		left := toUint(out[:16])
		right := toUint(out[16:32])
		if left != (x<<s)&0xFFFF {
			t.Fatalf("left shift %d<<%d = %d", x, s, left)
		}
		if right != x>>s {
			t.Fatalf("right shift %d>>%d = %d", x, s, right)
		}
	}
}

func TestComparators(t *testing.T) {
	b := NewBuilder(8, 8)
	b.A.AddPO(b.Eq(b.Input(0), b.Input(1)))
	b.A.AddPO(b.Ult(b.Input(0), b.Input(1)))
	a := finish(b)
	f := func(x, y uint8) bool {
		out := evalWords(a, []int{8, 8}, []uint64{uint64(x), uint64(y)})
		return out[0] == (x == y) && out[1] == (x < y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDoublePreservesLevelsDoublesNodes(t *testing.T) {
	a := Multiplier(12)
	d := Double(a)
	if d.NumAnds() != 2*a.NumAnds() {
		t.Errorf("nodes %d -> %d, want exact doubling", a.NumAnds(), d.NumAnds())
	}
	if d.Levels() != a.Levels() {
		t.Errorf("levels changed: %d -> %d", a.Levels(), d.Levels())
	}
	if d.NumPIs() != 2*a.NumPIs() || d.NumPOs() != 2*a.NumPOs() {
		t.Errorf("interface not doubled")
	}
	// Both copies behave like the original.
	rng := rand.New(rand.NewSource(6))
	x := uint64(rng.Intn(1 << 12))
	y := uint64(rng.Intn(1 << 12))
	out := evalWords(d, []int{12, 12, 12, 12}, []uint64{x, y, y, x})
	if toUint(out[:24]) != x*y || toUint(out[24:48]) != y*x {
		t.Errorf("copies compute wrong product")
	}
}

func TestSuiteBuilds(t *testing.T) {
	for _, c := range Suite(1) {
		a := c.Build()
		if err := a.Check(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if a.NumAnds() < 100 {
			t.Errorf("%s suspiciously small: %d nodes", c.Name, a.NumAnds())
		}
	}
}

func TestSuiteShapes(t *testing.T) {
	// The families must preserve the paper's structural contrasts:
	// div/sqrt/hyp deep, controllers shallow.
	get := func(name string) *aig.AIG {
		a, ok := ByName(name, 1)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return a
	}
	deep := []int{get("div").Levels(), get("sqrt").Levels(), get("hyp").Levels()}
	shallow := []int{get("ac97_ctrl").Levels(), get("vga_lcd").Levels(), get("voter").Levels()}
	for _, d := range deep {
		for _, s := range shallow {
			if d <= 2*s {
				t.Errorf("deep/shallow contrast lost: deep %v shallow %v", deep, shallow)
				return
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nonexistent", 1); ok {
		t.Error("unknown benchmark accepted")
	}
	if len(Names()) != 14 {
		t.Errorf("suite has %d cases, want 14", len(Names()))
	}
}

func TestScaleGrowsSuite(t *testing.T) {
	small, _ := ByName("multiplier", 1)
	big, _ := ByName("multiplier", 4)
	if big.NumAnds() != 4*small.NumAnds() {
		t.Errorf("scale 4 nodes = %d, want %d", big.NumAnds(), 4*small.NumAnds())
	}
	if big.Levels() != small.Levels() {
		t.Errorf("doubling changed levels")
	}
}

// TestDeepNarrow pins the adversarial generator's shape: exact node count,
// one PO per chain, structural validity, and a depth of 2 levels per step —
// deep and narrow by construction.
func TestDeepNarrow(t *testing.T) {
	a := DeepNarrow(4, 50)
	if err := aig.Check(a); err != nil {
		t.Fatal(err)
	}
	if got, want := a.NumAnds(), 4*4*50; got != want {
		t.Errorf("NumAnds = %d, want %d", got, want)
	}
	if a.NumPOs() != 4 {
		t.Errorf("NumPOs = %d, want 4", a.NumPOs())
	}
	if lev := a.Levels(); lev < 2*50 {
		t.Errorf("Levels = %d, want >= %d (deep chains)", lev, 2*50)
	}
	// The chains must be functionally independent and non-constant: the
	// strashed, optimizable form keeps all four outputs.
	r := a.Rehash()
	if r.NumAnds() < 4*4*50/2 {
		t.Errorf("strash collapsed the chains: %d of %d nodes survive", r.NumAnds(), a.NumAnds())
	}
}

// BarrelShiftRight is the right-shifting counterpart of BarrelShiftLeft,
// used only by the tests.
func (b *Builder) BarrelShiftRight(value Word, amt Word) Word {
	out := value
	for s := 0; s < len(amt); s++ {
		shifted := b.ShiftRightConst(out, 1<<uint(s))
		out = b.MuxWord(amt[s], shifted, out)
	}
	return out
}
