package cec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/balance"
	"aigre/internal/gpu"
	"aigre/internal/refactor"
)

func TestEquivalentRestructurings(t *testing.T) {
	// a&(b&c) vs (a&b)&c — structurally different, functionally equal.
	a1 := aig.New(3)
	a1.EnableStrash()
	a1.AddPO(a1.NewAnd(a1.PI(0), a1.NewAnd(a1.PI(1), a1.PI(2))))
	a2 := aig.New(3)
	a2.EnableStrash()
	a2.AddPO(a2.NewAnd(a2.NewAnd(a2.PI(0), a2.PI(1)), a2.PI(2)))
	res, err := Check(a1, a2, Options{})
	if err != nil || !res.Equivalent {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestInequivalentFound(t *testing.T) {
	a1 := aig.New(2)
	a1.EnableStrash()
	a1.AddPO(a1.NewAnd(a1.PI(0), a1.PI(1)))
	a2 := aig.New(2)
	a2.EnableStrash()
	a2.AddPO(a2.Or(a2.PI(0), a2.PI(1)))
	res, err := Check(a1, a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("AND vs OR reported equivalent")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	// Verify the counterexample distinguishes the networks.
	va := a1.EvalOnce(res.Counterexample)[res.FailingOutput]
	vb := a2.EvalOnce(res.Counterexample)[res.FailingOutput]
	if va == vb {
		t.Errorf("counterexample does not distinguish")
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a1 := aig.New(2)
	a1.AddPO(aig.ConstTrue)
	a2 := aig.New(3)
	a2.AddPO(aig.ConstTrue)
	res, _ := Check(a1, a2, Options{})
	if res.Equivalent || res.Method != "interface" {
		t.Errorf("res=%+v", res)
	}
}

func TestConstNetworks(t *testing.T) {
	a1 := aig.New(0)
	a1.AddPO(aig.ConstTrue)
	a1.AddPO(aig.ConstFalse)
	a2 := aig.New(0)
	a2.AddPO(aig.ConstTrue)
	a2.AddPO(aig.ConstFalse)
	res, err := Check(a1, a2, Options{})
	if err != nil || !res.Equivalent {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	a2.SetPO(1, aig.ConstTrue)
	res, _ = Check(a1, a2, Options{})
	if res.Equivalent || res.FailingOutput != 1 {
		t.Errorf("res=%+v", res)
	}
}

func TestSATMiterOnWidePIs(t *testing.T) {
	// More than exhaustiveLimit PIs with a subtle (non-random-refutable)
	// difference: equality except on one input pattern.
	n := 16
	build := func(extra bool) *aig.AIG {
		a := aig.New(n)
		a.EnableStrash()
		all := aig.ConstTrue
		for i := 0; i < n; i++ {
			all = a.NewAnd(all, a.PI(i))
		}
		// f = x0 (plus, when extra, flip on the all-ones minterm).
		f := a.PI(0)
		if extra {
			f = a.Xor(f, all)
		}
		a.AddPO(f)
		return a
	}
	eq, err := Check(build(false), build(false), Options{})
	if err != nil || !eq.Equivalent {
		t.Fatalf("identical networks: %+v %v", eq, err)
	}
	neq, err := Check(build(false), build(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if neq.Equivalent {
		t.Fatal("needle-in-haystack difference missed")
	}
	if neq.Method != "sat" && neq.Method != "simulation" {
		t.Errorf("method = %s", neq.Method)
	}
}

func TestQuickOptimizationsPassCEC(t *testing.T) {
	// End-to-end: every optimization engine must produce equivalent AIGs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(4), 100+rng.Intn(150), 3).Rehash()
		d := gpu.New(2)
		variants := []*aig.AIG{}
		if out, _ := balance.Sequential(a); out != nil {
			variants = append(variants, out)
		}
		if out, _ := balance.Parallel(d, a); out != nil {
			variants = append(variants, out)
		}
		if out, _ := refactor.Parallel(d, a, refactor.Options{}); out != nil {
			variants = append(variants, out)
		}
		for _, v := range variants {
			res, err := Check(a, v, Options{})
			if err != nil || !res.Equivalent {
				t.Logf("seed %d: %+v %v", seed, res, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
