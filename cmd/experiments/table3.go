package main

import (
	"fmt"

	"aigre/internal/aig"
	"aigre/internal/flow"
)

// table3 reproduces Table III: the rf_resyn and resyn2 optimization
// sequences, ABC-style sequential versus full-GPU. Per the paper, the GPU
// resyn2 runs two rewriting passes for each rwz command and one pass for
// every other command, and GPU refactoring commands run a single pass inside
// sequences.
//
// The sequential baselines run one at a time (their wall times are the
// table's denominators), then every GPU job goes through the scheduling
// engine at once over the shared worker budget: the modeled device times are
// wall-clock-independent, so batching the jobs changes nothing in the table
// while exercising the batch path end to end.
func table3() {
	fmt.Printf("%-14s | %-24s | %-10s | %-24s | %-12s | %-8s || %-24s | %-10s | %-24s | %-12s | %-8s\n",
		"Benchmark", "ABC rf_resyn (and/lev)", "time (s)", "GPU rf_resyn (and/lev)", "model (s)", "accel",
		"ABC resyn2 (and/lev)", "time (s)", "GPU resyn2 (and/lev)", "model (s)", "accel")

	cases := suiteCases()
	inputs := make([]*aig.AIG, len(cases))
	var jobs []parJob
	for i, c := range cases {
		inputs[i] = c.Build()
		jobs = append(jobs,
			parJob{inputs[i], flow.RfResyn},
			parJob{inputs[i], flow.Resyn2})
	}
	par := runParJobs(jobs, true)

	var rfNodeR, rfLevR, rfAccel, r2NodeR, r2LevR, r2Accel geo
	for i, c := range cases {
		a := inputs[i]
		parRF, parR2 := par[2*i], par[2*i+1]
		verify(c.Name+"/rf_resyn", a, parRF.AIG)
		verify(c.Name+"/resyn2", a, parR2.AIG)

		seqRF, seqRFWall := runSeqScript(a, flow.RfResyn)
		seqR2, seqR2Wall := runSeqScript(a, flow.Resyn2)

		accelRF := seqRFWall.Seconds() / parRF.Modeled.Seconds()
		accelR2 := seqR2Wall.Seconds() / parR2.Modeled.Seconds()
		fmt.Printf("%-14s | %9d /%5d          | %-10s | %9d /%5d          | %-12s | %7.1fx || %9d /%5d          | %-10s | %9d /%5d          | %-12s | %7.1fx\n",
			c.Name,
			seqRF.NumAnds(), seqRF.Levels(), fmtDur(seqRFWall),
			parRF.NodesAfter, parRF.LevelsAfter, fmtDur(parRF.Modeled), accelRF,
			seqR2.NumAnds(), seqR2.Levels(), fmtDur(seqR2Wall),
			parR2.NodesAfter, parR2.LevelsAfter, fmtDur(parR2.Modeled), accelR2)

		rfNodeR.add(ratio(parRF.NodesAfter, seqRF.NumAnds()))
		rfLevR.add(ratio(parRF.LevelsAfter, seqRF.Levels()))
		rfAccel.add(accelRF)
		r2NodeR.add(ratio(parR2.NodesAfter, seqR2.NumAnds()))
		r2LevR.add(ratio(parR2.LevelsAfter, seqR2.Levels()))
		r2Accel.add(accelR2)
	}
	fmt.Println()
	fmt.Println("TABLE III geomean ratios, GPU vs ABC-style (paper: rf_resyn 0.996/1.000 @39.5x; resyn2 1.003/0.982 @45.9x)")
	fmt.Printf("  rf_resyn:  nodes %.3f  levels %.3f  accel %.1fx\n", rfNodeR.mean(), rfLevR.mean(), rfAccel.mean())
	fmt.Printf("  resyn2:    nodes %.3f  levels %.3f  accel %.1fx\n", r2NodeR.mean(), r2LevR.mean(), r2Accel.mean())
}
