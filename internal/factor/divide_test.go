package factor

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aigre/internal/alloctest"
	"aigre/internal/truth"
)

// divideMaps is divide as it was before it worked on sorted cube slices: one
// map per divisor cube for the quotient sets and one for the product, kept
// as the oracle of TestDivideMatchesMaps.
func divideMaps(f, d []truth.Cube) (q, r []truth.Cube) {
	if len(d) == 0 {
		return nil, f
	}
	var qset map[truth.Cube]bool
	for _, dc := range d {
		cur := map[truth.Cube]bool{}
		for _, fc := range f {
			if cubeContains(fc, dc) {
				cur[cubeRemove(fc, dc)] = true
			}
		}
		if qset == nil {
			qset = cur
		} else {
			for c := range qset {
				if !cur[c] {
					delete(qset, c)
				}
			}
		}
		if len(qset) == 0 {
			return nil, f
		}
	}
	for c := range qset {
		q = append(q, c)
	}
	sort.Slice(q, func(i, j int) bool {
		if q[i].Pos != q[j].Pos {
			return q[i].Pos < q[j].Pos
		}
		return q[i].Neg < q[j].Neg
	})
	prod := map[truth.Cube]bool{}
	for _, qc := range q {
		for _, dc := range d {
			prod[cubeProduct(qc, dc)] = true
		}
	}
	for _, fc := range f {
		if !prod[fc] {
			r = append(r, fc)
		}
	}
	return q, r
}

// randomCube draws a cube over nVars variables, each literal absent, positive
// or negative (rarely both, which no ISOP cube has but divide must not care
// about).
func randomCube(rng *rand.Rand, nVars int) truth.Cube {
	var c truth.Cube
	for v := 0; v < nVars; v++ {
		switch rng.Intn(7) {
		case 0, 1:
			c = c.WithLit(v, true)
		case 2, 3:
			c = c.WithLit(v, false)
		case 4:
			if rng.Intn(8) == 0 {
				c = c.WithLit(v, true).WithLit(v, false)
			}
		}
	}
	return c
}

// TestDivideMatchesMaps: on random covers — half of them built as q*d + r so
// that the quotient is not empty, with duplicate cubes in f — divide returns
// the oracle's quotient, in (Pos, Neg) order, and its remainder, in f's
// order.
func TestDivideMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nonEmpty := 0
	for i := 0; i < 20000; i++ {
		nVars := 2 + rng.Intn(7)
		var f, d []truth.Cube
		for range 1 + rng.Intn(3) {
			d = append(d, randomCube(rng, nVars))
		}
		if i%2 == 0 {
			for range rng.Intn(5) {
				qc := randomCube(rng, nVars)
				for _, dc := range d {
					f = append(f, cubeProduct(qc, dc))
				}
			}
		}
		for range rng.Intn(8) {
			f = append(f, randomCube(rng, nVars))
		}
		if len(f) > 0 && rng.Intn(4) == 0 {
			f = append(f, f[rng.Intn(len(f))])
		}
		rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
		wantQ, wantR := divideMaps(f, d)
		gotQ, gotR := divide(slices.Clone(f), d)
		if !slices.Equal(gotQ, wantQ) || !slices.Equal(gotR, wantR) {
			t.Fatalf("divide(%v, %v) = %v, %v; oracle %v, %v", f, d, gotQ, gotR, wantQ, wantR)
		}
		if len(wantQ) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 5000 {
		t.Errorf("only %d of 20000 covers had a quotient", nonEmpty)
	}
}

// TestDivideAllocBudget: dividing a fixed 12-cube cover by a 2-cube divisor
// allocates the quotient, one set buffer and the remainder (4 B per cube
// each, rounded to size classes), not the three maps of divideMaps.
func TestDivideAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	lit := func(v int) truth.Cube { return truth.Cube{}.WithLit(v, true) }
	d := []truth.Cube{lit(0), lit(1)}
	var f []truth.Cube
	for v := 2; v < 7; v++ {
		f = append(f, cubeProduct(lit(v), d[0]), cubeProduct(lit(v), d[1]))
	}
	f = append(f, lit(7), lit(8))
	q, r := divide(f, d)
	if len(q) != 5 || len(r) != 2 {
		t.Fatalf("quotient %v, remainder %v", q, r)
	}
	const budget = 160
	got := alloctest.Bytes(func() { divide(f, d) })
	t.Logf("%d B (budget %d B)", got, budget)
	if got > budget {
		t.Errorf("divide of %d cubes by %d allocated %d B, budget %d B", len(f), len(d), got, budget)
	}
}
