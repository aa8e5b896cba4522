package main

import (
	"bytes"
	"fmt"

	"aigre/internal/aig"
	"aigre/internal/aiger"
	"aigre/internal/bench"
)

// input is one generated circuit. Only AIGER reaches the code under test;
// Net stays with the harness as the reference every output is verified
// against.
type input struct {
	Name   string
	Net    *aig.AIG
	AIGER  []byte
	Ands   int
	Levels int
	// FullCEC marks inputs whose full equivalence check costs under ~2 s at
	// scale 4; the rest are verified by simulation only (README).
	FullCEC bool
}

func newInput(name string, net *aig.AIG, fullCEC bool) (input, error) {
	var buf bytes.Buffer
	if err := aiger.WriteBinary(&buf, net); err != nil {
		return input{}, fmt.Errorf("encode %s: %w", name, err)
	}
	return input{Name: name, Net: net, AIGER: buf.Bytes(), Ands: net.NumAnds(), Levels: net.Levels(), FullCEC: fullCEC}, nil
}

// mtmSeeds are bench.Suite's generator seeds for the three random MtM
// functions; -seed N adds N-1 to each, so seed 1 is the paper suite itself.
var mtmSeeds = map[string]struct {
	seed  int64
	nodes int
}{
	"twentythree": {23, 2300},
	"twenty":      {20, 2000},
	"sixteen":     {16, 1600},
}

var fullCECInputs = map[string]bool{
	"twentythree": true, "twenty": true, "sixteen": true, "mem_ctrl": true,
	"sin": true, "ac97_ctrl": true, "vga_lcd": true,
}

// suiteInputs builds the named bench.Suite(scale) families (all 14 when
// names is nil), the MtM ones reseeded from seed.
func suiteInputs(scale int, seed int64, names []string) ([]input, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var ins []input
	for _, c := range bench.Suite(scale) {
		if names != nil && !want[c.Name] {
			continue
		}
		var net *aig.AIG
		if m, ok := mtmSeeds[c.Name]; ok {
			net = bench.MtM(c.Name, m.seed+seed-1, m.nodes*scale)
		} else {
			net = c.Build()
		}
		net.Name = c.Name
		in, err := newInput(c.Name, net, fullCECInputs[c.Name])
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	if names != nil && len(ins) != len(names) {
		return nil, fmt.Errorf("suite has %d of the %d requested inputs", len(ins), len(names))
	}
	return ins, nil
}

// deepInput is the million-node deep-narrow circuit; its shape is fixed, so
// the seed only moves the verification patterns on this workload.
func deepInput(chains, steps int) ([]input, error) {
	in, err := newInput("deep_narrow", bench.DeepNarrow(chains, steps), false)
	if err != nil {
		return nil, err
	}
	return []input{in}, nil
}

func totalAnds(ins []input) int {
	n := 0
	for _, in := range ins {
		n += in.Ands
	}
	return n
}
