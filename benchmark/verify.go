package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"aigre"
	"aigre/internal/aig"
)

const (
	simRounds        = 8
	simWordsPerRound = 8 // 8 rounds x 8 words x 64 bits = 4096 patterns
)

// simEquivalent is the harness's own comparator: both networks are simulated
// on the same 4096 seeded random patterns and every primary output compared.
// Rounds keep the simulation buffer of a million-node network at 64 MB.
func simEquivalent(a, b *aig.AIG, seed int64) error {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return fmt.Errorf("interface differs: %d/%d inputs, %d/%d outputs", a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]uint64, a.NumPIs())
	for r := 0; r < simRounds; r++ {
		for i := range pats {
			w := make([]uint64, simWordsPerRound)
			for j := range w {
				w[j] = rng.Uint64()
			}
			pats[i] = w
		}
		oa, ob := a.Simulate(pats), b.Simulate(pats)
		for po := range oa {
			for j := range oa[po] {
				if oa[po][j] != ob[po][j] {
					return fmt.Errorf("output %d differs on a simulated pattern (round %d)", po, r)
				}
			}
		}
	}
	return nil
}

// verdict is what verification learned about one output.
type verdict struct {
	Ands, Levels int
	Err          error
}

// verifier checks outputs outside the timed region. Identical bytes for the
// same input verify once: the verdict is a function of (input, output).
type verifier struct {
	seed int64
	seen map[verifyKey]verdict
}

type verifyKey struct {
	input   string
	digest  [sha256.Size]byte
	fullCEC bool
}

func newVerifier(seed int64) *verifier {
	return &verifier{seed: seed, seen: make(map[verifyKey]verdict)}
}

// check parses out (whose SHA-256 is digest), validates its structure,
// compares it with the input on 4096 patterns and, when fullCEC is set,
// proves equivalence.
func (v *verifier) check(in *input, out []byte, digest [sha256.Size]byte, fullCEC bool) verdict {
	key := verifyKey{in.Name, digest, fullCEC}
	if vd, ok := v.seen[key]; ok {
		return vd
	}
	vd := v.verify(in, out, fullCEC)
	v.seen[key] = vd
	return vd
}

func (v *verifier) verify(in *input, out []byte, fullCEC bool) verdict {
	n, err := aigre.Read(bytes.NewReader(out))
	if err != nil {
		return verdict{Err: fmt.Errorf("%s: output does not parse: %w", in.Name, err)}
	}
	st := n.Stats()
	vd := verdict{Ands: st.Nodes, Levels: st.Levels}
	if err := n.Check(); err != nil {
		vd.Err = fmt.Errorf("%s: output fails Check: %w", in.Name, err)
		return vd
	}
	if err := simEquivalent(in.Net, n.Internal(), v.seed); err != nil {
		vd.Err = fmt.Errorf("%s: %w", in.Name, err)
		return vd
	}
	if fullCEC {
		eq, err := aigre.FromInternal(in.Net).EquivalentTo(n)
		if err != nil {
			vd.Err = fmt.Errorf("%s: full CEC: %w", in.Name, err)
		} else if !eq {
			vd.Err = fmt.Errorf("%s: full CEC refutes the output", in.Name)
		}
	}
	return vd
}
