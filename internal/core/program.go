package core

import (
	"aigre/internal/aig"
	"aigre/internal/factor"
)

// Ref is an operand of a linearized cone program. It encodes, in one int32:
// bit 0 the complement flag, bits 1-2 the kind, the remaining bits an index.
type Ref int32

const (
	refConst Ref = 0 // index unused; complement bit selects true/false
	refLeaf  Ref = 2 // index into the cone's leaf array
	refOp    Ref = 4 // index of an earlier op in the program
	refKind  Ref = 6
)

// MakeRef builds a reference of the given kind.
func MakeRef(kind Ref, idx int, compl bool) Ref {
	r := kind | Ref(idx<<3)
	if compl {
		r |= 1
	}
	return r
}

// ConstRef returns a constant reference (value selects true/false).
func ConstRef(value bool) Ref { return MakeRef(refConst, 0, value) }

// LeafRef returns a reference to cone leaf i, optionally complemented.
func LeafRef(i int, neg bool) Ref { return MakeRef(refLeaf, i, neg) }

// OpRef returns a reference to op i of the program, optionally complemented.
func OpRef(i int, neg bool) Ref { return MakeRef(refOp, i, neg) }

// Kind returns the reference kind (refConst, refLeaf or refOp).
func (r Ref) Kind() Ref { return r & refKind }

// Index returns the encoded index.
func (r Ref) Index() int { return int(r >> 3) }

// IsCompl reports whether the reference is complemented.
func (r Ref) IsCompl() bool { return r&1 != 0 }

// Not returns the complemented reference.
func (r Ref) Not() Ref { return r ^ 1 }

// NotCond complements the reference when c is true.
func (r Ref) NotCond(c bool) Ref {
	if c {
		return r ^ 1
	}
	return r
}

// Op is one binary AND in a cone program.
type Op struct{ A, B Ref }

// Program is a linearized factored form: a sequence of AND operations whose
// operands reference constants, cone leaves, or earlier ops. The parallel
// replacement engine executes one op per cone per insertion pass.
type Program struct {
	Ops  []Op
	Root Ref // the cone's output
}

// Linearize flattens a factored tree into a program. compl is folded into
// the returned root reference. Tree variable v maps to leaf v.
func Linearize(t *factor.Tree, compl bool) Program {
	var p Program
	p.Root = p.emit(t).NotCond(compl)
	return p
}

// emit returns the reference computing t, appending ops as needed.
func (p *Program) emit(t *factor.Tree) Ref {
	switch t.Kind {
	case factor.KindConst0:
		return MakeRef(refConst, 0, false)
	case factor.KindConst1:
		return MakeRef(refConst, 0, true)
	case factor.KindLit:
		return MakeRef(refLeaf, t.Var, t.Neg)
	case factor.KindAnd, factor.KindOr:
		isOr := t.Kind == factor.KindOr
		refs := make([]Ref, len(t.Children))
		for i, c := range t.Children {
			refs[i] = p.emit(c)
			if isOr {
				refs[i] = refs[i].Not() // OR via De Morgan
			}
		}
		res := p.balanced(refs)
		if isOr {
			res = res.Not()
		}
		return res
	}
	panic("core: bad factored tree")
}

// balanced combines refs with binary ANDs in a balanced tree.
func (p *Program) balanced(refs []Ref) Ref {
	for len(refs) > 1 {
		next := refs[:0]
		for i := 0; i+1 < len(refs); i += 2 {
			p.Ops = append(p.Ops, Op{refs[i], refs[i+1]})
			next = append(next, MakeRef(refOp, len(p.Ops)-1, false))
		}
		if len(refs)%2 == 1 {
			next = append(next, refs[len(refs)-1])
		}
		refs = next
	}
	return refs[0]
}

// Resolve maps a reference to an AIG literal given the cone's leaf literals
// and the results of earlier ops.
func Resolve(r Ref, leaves []aig.Lit, results []aig.Lit) aig.Lit {
	var l aig.Lit
	switch r.Kind() {
	case refConst:
		l = aig.ConstFalse
	case refLeaf:
		l = leaves[r.Index()]
	case refOp:
		l = results[r.Index()]
	default:
		panic("core: bad ref kind")
	}
	return l.NotCond(r.IsCompl())
}

// NumAnds returns the upper bound on AND nodes the program creates.
func (p Program) NumAnds() int { return len(p.Ops) }
