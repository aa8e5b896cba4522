package main

import (
	"fmt"
	"os"

	"aigre/internal/bench"
	"aigre/internal/flow"
)

// fig7 reproduces Figure 7: the acceleration of GPU rf_resyn over the
// ABC-style baseline as a function of AIG size, obtained by enlarging one
// benchmark through repeated doubling. The paper's curve starts below 1x for
// AIGs under ~30k nodes (kernel launch overhead dominates) and rises
// monotonically with size; the same shape emerges from the device cost
// model.
func fig7() {
	base := bench.Multiplier(12) // ~2.5k nodes, doubled upward
	maxDoubles := 6
	if *scaleFlag > 1 {
		maxDoubles = 8
	}
	// Warm the shared resynthesis caches so the first timed point does not
	// pay the one-time factoring cost.
	runSeqScript(base, flow.RfResyn)
	var csv *os.File
	if *csvFlag != "" {
		f, err := os.Create(*csvFlag)
		if err == nil {
			csv = f
			defer csv.Close()
			fmt.Fprintln(csv, "nodes,levels,abc_wall_s,gpu_model_s,accel")
		}
	}
	fmt.Printf("%-12s %-10s %-14s %-14s %-10s\n", "#nodes", "levels", "ABC wall (s)", "GPU model (s)", "accel")
	for d := 0; d <= maxDoubles; d++ {
		a := base
		for i := 0; i < d; i++ {
			a = bench.Double(a)
		}
		seqOut, seqWall := runSeqScript(a, flow.RfResyn)
		parOut, _, parModel, _ := runParScript(a, flow.RfResyn)
		_ = seqOut
		_ = parOut
		accel := seqWall.Seconds() / parModel.Seconds()
		fmt.Printf("%-12d %-10d %-14s %-14s %8.2fx\n",
			a.NumAnds(), a.Levels(), fmtDur(seqWall), fmtDur(parModel), accel)
		if csv != nil {
			fmt.Fprintf(csv, "%d,%d,%.6f,%.6f,%.3f\n",
				a.NumAnds(), a.Levels(), seqWall.Seconds(), parModel.Seconds(), accel)
		}
	}
	fmt.Println("\n(paper: <1x below ~30k nodes, rising to >40x beyond 10M nodes)")
}
