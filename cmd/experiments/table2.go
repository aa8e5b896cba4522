package main

import (
	"fmt"
	"time"

	"aigre/internal/balance"
	"aigre/internal/refactor"
)

// table2 reproduces Table II: single optimization algorithms, the sequential
// ABC-style implementation versus the GPU algorithm, on the 14-benchmark
// suite. Balancing runs once per side; refactoring runs twice on the GPU
// side (the paper's "GPU rf (x2)": parallel resynthesis cannot see earlier
// replacements within a pass, so a second pass catches up) against one
// sequential drf pass.
func table2() {
	fmt.Printf("%-14s | %-22s | %-10s | %-22s | %-12s | %-8s || %-22s | %-10s | %-22s | %-12s | %-8s\n",
		"Benchmark", "stats", "ABC b (s)", "GPU b nodes/lev", "GPU b model", "accel",
		"ABC drf nodes/lev", "drf (s)", "GPU rf x2 nodes/lev", "rf model", "accel")

	var bNodeR, bLevR, bAccel, rfNodeR, rfLevR, rfAccel geo
	for _, c := range suiteCases() {
		a := c.Build()
		stats := a.Stats()

		// Balancing.
		startSeqB := time.Now()
		outSeqB, _ := balance.Sequential(a)
		seqBWall := time.Since(startSeqB)
		parB := runParCommand(a, "b", 1)
		outParB, parBModel := parB.AIG, parB.Modeled
		verify(c.Name+"/b", a, outParB)

		// Refactoring: sequential drf (1 pass) vs GPU rf (2 passes + cleanup).
		startRF := time.Now()
		outSeqRF, _ := refactor.Sequential(a, refactor.Options{})
		seqRFWall := time.Since(startRF)
		parRF := runParCommand(a, "rf", 2)
		outParRF, parRFModel := parRF.AIG, parRF.Modeled
		verify(c.Name+"/rf", a, outParRF)

		accelB := seqBWall.Seconds() / parBModel.Seconds()
		accelRF := seqRFWall.Seconds() / parRFModel.Seconds()
		fmt.Printf("%-14s | %-22s | %-10s | %7d /%5d         | %-12s | %7.1fx || %7d /%5d          | %-10s | %7d /%5d          | %-12s | %7.1fx\n",
			c.Name,
			fmt.Sprintf("%d/%d", stats.Ands, stats.Levels),
			fmtDur(seqBWall),
			outParB.NumAnds(), outParB.Levels(), fmtDur(parBModel), accelB,
			outSeqRF.NumAnds(), outSeqRF.Levels(), fmtDur(seqRFWall),
			outParRF.NumAnds(), outParRF.Levels(), fmtDur(parRFModel), accelRF)

		bNodeR.add(ratio(outParB.NumAnds(), outSeqB.NumAnds()))
		bLevR.add(ratio(outParB.Levels(), outSeqB.Levels()))
		bAccel.add(accelB)
		rfNodeR.add(ratio(outParRF.NumAnds(), outSeqRF.NumAnds()))
		rfLevR.add(ratio(outParRF.Levels(), outSeqRF.Levels()))
		rfAccel.add(accelRF)
	}
	fmt.Println()
	fmt.Println("TABLE II geomean ratios, GPU vs ABC-style (paper: b 0.999/1.000 @14.8x; rf 0.983/0.980 @42.7x)")
	fmt.Printf("  balance:   nodes %.3f  levels %.3f  accel %.1fx\n", bNodeR.mean(), bLevR.mean(), bAccel.mean())
	fmt.Printf("  refactor:  nodes %.3f  levels %.3f  accel %.1fx\n", rfNodeR.mean(), rfLevR.mean(), rfAccel.mean())
}
