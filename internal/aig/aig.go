// Package aig implements the And-Inverter Graph (AIG) substrate used by all
// optimization algorithms in this repository.
//
// An AIG is a Boolean network in which every internal node is a two-input AND
// gate whose fanin signals may be complemented. Signals are encoded as
// literals in the AIGER convention: literal = 2*node + complement. Node 0 is
// the constant-false node, so literal 0 is constant false and literal 1 is
// constant true.
//
// Node ids are allocated as: 0 (constant), 1..NumPIs (primary inputs),
// NumPIs+1.. (AND nodes). Newly created AND nodes always reference existing
// nodes, so an AIG is in topological id order unless in-place replacement
// (ReplaceNode) has been used; Compact restores topological order.
package aig

import "fmt"

// Lit is a signal literal: 2*node | complement.
type Lit uint32

// ConstFalse and ConstTrue are the two literals of the constant node 0.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MakeLit builds the literal for node id with the given complement flag.
func MakeLit(id int32, compl bool) Lit {
	l := Lit(uint32(id) << 1)
	if compl {
		l |= 1
	}
	return l
}

// Var returns the node id of the literal.
func (l Lit) Var() int32 { return int32(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotCond returns the literal complemented when c is true.
func (l Lit) NotCond(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular returns the non-complemented literal of the same node.
func (l Lit) Regular() Lit { return l &^ 1 }

func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// AIG is an And-Inverter Graph. The zero value is not usable; construct with
// New.
//
// The basic structure (fanins, POs) is always available. Optional features
// are enabled on demand:
//
//   - structural hashing (EnableStrash / NewAnd) guarantees node uniqueness;
//   - fanout tracking (EnableFanouts) supports in-place replacement and
//     MFFC computation.
type AIG struct {
	Name string

	numPIs int32
	fanin0 []Lit // indexed by node id; zero for const and PIs
	fanin1 []Lit
	pos    []Lit // primary output literals

	// optional features
	strash  *strashTable // (fanin0,fanin1) -> node id (see strash.go)
	fanouts [][]int32    // node id -> fanout node ids (POs not included)
	nPORefs []int32      // node id -> number of POs referencing it
	deleted []bool       // node id -> node has been removed (in-place editing)
	numDead int32        // number of deleted AND nodes
}

// New creates an AIG with numPIs primary inputs and no AND nodes.
func New(numPIs int) *AIG { return NewCap(numPIs, 2*(numPIs+1)) }

// NewCap creates an AIG with numPIs primary inputs, reserving capacity for
// about capNodes total nodes.
func NewCap(numPIs, capNodes int) *AIG {
	capNodes = max(capNodes, numPIs+1)
	return &AIG{
		numPIs: int32(numPIs),
		fanin0: make([]Lit, numPIs+1, capNodes),
		fanin1: make([]Lit, numPIs+1, capNodes),
	}
}

// NumPIs returns the number of primary inputs.
func (a *AIG) NumPIs() int { return int(a.numPIs) }

// NumPOs returns the number of primary outputs.
func (a *AIG) NumPOs() int { return len(a.pos) }

// NumObjs returns the total number of objects: constant + PIs + AND nodes
// (including deleted ones, if any). Valid node ids are 0..NumObjs()-1.
func (a *AIG) NumObjs() int { return len(a.fanin0) }

// NumAnds returns the number of live AND nodes.
func (a *AIG) NumAnds() int { return len(a.fanin0) - int(a.numPIs) - 1 - int(a.numDead) }

// IsConst reports whether id is the constant node.
func (a *AIG) IsConst(id int32) bool { return id == 0 }

// IsAnd reports whether id is an AND node (possibly deleted).
func (a *AIG) IsAnd(id int32) bool { return id > a.numPIs && int(id) < len(a.fanin0) }

// IsDeleted reports whether the node has been removed by in-place editing.
func (a *AIG) IsDeleted(id int32) bool {
	return a.deleted != nil && a.deleted[id]
}

// PI returns the literal of the i-th primary input (0-based, non-complemented).
func (a *AIG) PI(i int) Lit {
	if i < 0 || int32(i) >= a.numPIs {
		panic(fmt.Sprintf("aig: PI index %d out of range (%d PIs)", i, a.numPIs))
	}
	return MakeLit(int32(i+1), false)
}

// PO returns the literal driving the i-th primary output.
func (a *AIG) PO(i int) Lit { return a.pos[i] }

// POs returns the slice of primary output literals. The caller must not
// modify it.
func (a *AIG) POs() []Lit { return a.pos }

// SetPO redirects the i-th primary output to drive lit.
func (a *AIG) SetPO(i int, lit Lit) {
	old := a.pos[i]
	a.pos[i] = lit
	if a.nPORefs != nil {
		a.nPORefs[old.Var()]--
		a.nPORefs[lit.Var()]++
	}
}

// AddPO appends a primary output driven by lit and returns its index.
func (a *AIG) AddPO(lit Lit) int {
	a.pos = append(a.pos, lit)
	if a.nPORefs != nil {
		a.nPORefs[lit.Var()]++
	}
	return len(a.pos) - 1
}

// Fanin0 returns the first fanin literal of an AND node.
func (a *AIG) Fanin0(id int32) Lit { return a.fanin0[id] }

// Fanin1 returns the second fanin literal of an AND node.
func (a *AIG) Fanin1(id int32) Lit { return a.fanin1[id] }

// Key packs a normalized fanin pair into a structural-hashing key. Fanins are
// ordered so that the smaller literal comes first, matching NewAnd's
// normalization.
func Key(f0, f1 Lit) uint64 {
	if f0 > f1 {
		f0, f1 = f1, f0
	}
	return uint64(f0)<<32 | uint64(f1)
}

// HashKey mixes a structural key into a table slot hash. Exported so that the
// concurrent hash table and the sequential strash map can agree on hashing
// behaviour in tests.
func HashKey(k uint64) uint64 {
	// 64-bit finalizer (splitmix64).
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// EnableStrash builds the structural-hashing table for the current nodes,
// pre-sized for the network's remaining append capacity (strash.go documents
// the sizing discipline): a network fresh from NewCap carries its expected
// final size as that capacity, so its construction never grows the table.
// Subsequent NewAnd calls reuse existing nodes with identical fanin pairs. If
// duplicate pairs already exist, the first occurrence wins.
func (a *AIG) EnableStrash() { a.rebuildStrash(a.NumAnds() + cap(a.fanin0) - len(a.fanin0)) }

// Lookup returns the existing node literal for an AND of f0 and f1 after
// constant propagation, without creating a node. The boolean result reports
// whether such a literal exists (a trivial simplification applies or the
// strash table already contains the pair).
func (a *AIG) Lookup(f0, f1 Lit) (Lit, bool) {
	if lit, ok := SimplifyAnd(f0, f1); ok {
		return lit, true
	}
	if a.strash == nil {
		return 0, false
	}
	if id, ok := a.strash.get(Key(f0, f1)); ok && !a.IsDeleted(id) {
		return MakeLit(id, false), true
	}
	return 0, false
}

// SimplifyAnd applies the trivial AND simplifications (x&x=x, x&!x=0,
// x&0=0, x&1=x), returning the simplified literal and whether one applied.
func SimplifyAnd(f0, f1 Lit) (Lit, bool) {
	if f0 == f1 {
		return f0, true
	}
	if f0 == f1.Not() {
		return ConstFalse, true
	}
	if f0 == ConstFalse || f1 == ConstFalse {
		return ConstFalse, true
	}
	if f0 == ConstTrue {
		return f1, true
	}
	if f1 == ConstTrue {
		return f0, true
	}
	return 0, false
}

// NewAnd returns a literal for the AND of f0 and f1, creating a node if
// needed. Trivial cases are simplified; when structural hashing is enabled,
// an existing node with the same fanins is reused.
func (a *AIG) NewAnd(f0, f1 Lit) Lit {
	if lit, ok := SimplifyAnd(f0, f1); ok {
		return lit
	}
	if f0 > f1 {
		f0, f1 = f1, f0
	}
	if a.strash != nil {
		if id, ok := a.strash.get(Key(f0, f1)); ok && !a.IsDeleted(id) {
			return MakeLit(id, false)
		}
	}
	id := a.addAndRaw(f0, f1)
	if a.strash != nil {
		a.strash.set(Key(f0, f1), id)
	}
	return MakeLit(id, false)
}

// addAndRaw appends an AND node without simplification or hashing, updating
// fanout structures when enabled.
func (a *AIG) addAndRaw(f0, f1 Lit) int32 {
	id := int32(len(a.fanin0))
	a.fanin0 = append(a.fanin0, f0)
	a.fanin1 = append(a.fanin1, f1)
	if a.fanouts != nil {
		a.fanouts = append(a.fanouts, nil)
		a.nPORefs = append(a.nPORefs, 0)
		a.addFanout(f0.Var(), id)
		a.addFanout(f1.Var(), id)
	}
	if a.deleted != nil {
		a.deleted = append(a.deleted, false)
	}
	return id
}

// AddAndUnchecked appends an AND node with the given fanins without any
// simplification, normalization, or structural hashing. It is intended for
// bulk loaders (AIGER reader, parallel replacement engine) that guarantee
// validity themselves.
func (a *AIG) AddAndUnchecked(f0, f1 Lit) Lit {
	if f0 > f1 {
		f0, f1 = f1, f0
	}
	return MakeLit(a.addAndRaw(f0, f1), false)
}

// ExtendSlots appends n uninitialized AND-node slots (fanins constant-false)
// and returns the id of the first. This is a low-level bulk-allocation hook
// for the parallel replacement and balancing engines: slots are later filled
// concurrently with SetFanins, and slots left unused (an op that folds, or in
// balancing one that loses a sharing race) stay until the next Compact. Not
// compatible with enabled strash/fanout tracking.
func (a *AIG) ExtendSlots(n int) int32 {
	if a.strash != nil || a.fanouts != nil {
		panic("aig: ExtendSlots requires plain mode (no strash/fanout tracking)")
	}
	first := int32(len(a.fanin0))
	a.fanin0 = append(a.fanin0, make([]Lit, n)...)
	a.fanin1 = append(a.fanin1, make([]Lit, n)...)
	if a.deleted != nil {
		a.deleted = append(a.deleted, make([]bool, n)...)
	}
	return first
}

// SetFanins overwrites the fanins of an AND node. Low-level: no
// simplification, hashing, or fanout bookkeeping is performed.
func (a *AIG) SetFanins(id int32, f0, f1 Lit) {
	if f0 > f1 {
		f0, f1 = f1, f0
	}
	a.fanin0[id] = f0
	a.fanin1[id] = f1
}

// Or returns a literal for the OR of f0 and f1 (De Morgan on NewAnd).
func (a *AIG) Or(f0, f1 Lit) Lit { return a.NewAnd(f0.Not(), f1.Not()).Not() }

// Xor returns a literal for the XOR of f0 and f1, built from three AND nodes
// (or fewer after simplification/strashing).
func (a *AIG) Xor(f0, f1 Lit) Lit {
	// f0 ^ f1 = !(f0 & f1) & !( !f0 & !f1 )
	return a.NewAnd(a.NewAnd(f0, f1).Not(), a.NewAnd(f0.Not(), f1.Not()).Not())
}

// Mux returns a literal for: if sel then t else e.
func (a *AIG) Mux(sel, t, e Lit) Lit {
	return a.NewAnd(a.NewAnd(sel, t).Not(), a.NewAnd(sel.Not(), e).Not()).Not()
}

// Maj3 returns the majority of three literals.
func (a *AIG) Maj3(x, y, z Lit) Lit {
	return a.Or(a.NewAnd(x, y), a.Or(a.NewAnd(x, z), a.NewAnd(y, z)))
}

// ForEachAnd calls fn for every live AND node id in increasing id order.
func (a *AIG) ForEachAnd(fn func(id int32)) {
	for id := a.numPIs + 1; int(id) < len(a.fanin0); id++ {
		if a.IsDeleted(id) {
			continue
		}
		fn(id)
	}
}

// Stats summarizes an AIG.
type Stats struct {
	PIs    int
	POs    int
	Ands   int
	Levels int
}

// Stats returns the network statistics (the level computation walks the
// graph).
func (a *AIG) Stats() Stats {
	return Stats{
		PIs:    int(a.numPIs),
		POs:    len(a.pos),
		Ands:   a.NumAnds(),
		Levels: a.Levels(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("i/o = %d/%d  and = %d  lev = %d", s.PIs, s.POs, s.Ands, s.Levels)
}

// Clone returns a deep copy of the AIG's basic structure (fanins, POs and
// deleted marks), each array with capacity equal to its length. Optional
// features (strash, fanouts) are not copied; re-enable them on the clone if
// needed.
func (a *AIG) Clone() *AIG {
	c := &AIG{
		Name:    a.Name,
		numPIs:  a.numPIs,
		fanin0:  append(make([]Lit, 0, len(a.fanin0)), a.fanin0...),
		fanin1:  append(make([]Lit, 0, len(a.fanin1)), a.fanin1...),
		pos:     append(make([]Lit, 0, len(a.pos)), a.pos...),
		numDead: a.numDead,
	}
	if a.deleted != nil {
		c.deleted = append(make([]bool, 0, len(a.deleted)), a.deleted...)
	}
	return c
}

// MemoryFootprint returns an estimate of the memory used by the basic
// structure in bytes, for reporting.
func (a *AIG) MemoryFootprint() int64 {
	b := int64(len(a.fanin0))*8 + int64(len(a.pos))*4
	return b
}
