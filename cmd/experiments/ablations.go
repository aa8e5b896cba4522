package main

import (
	"fmt"

	"aigre/internal/bench"
	"aigre/internal/dedup"
	"aigre/internal/flow"
	"aigre/internal/refactor"
	"aigre/internal/resub"
)

// ablations exercises the design choices called out in DESIGN.md:
//
//  1. cut-size limit of the FFC collapse (quality/time trade-off),
//  2. the de-duplication pass of Section III-F (what it removes),
//  3. linear-probing vs chained hash table ([9]'s design): a pointer to the
//     internal/hashtable benchmarks that measure it,
//  4. the resubstitution extension (the paper's future work) inside a
//     compress2rs-style sequence.
func ablations() {
	a, _ := bench.ByName("multiplier", *scaleFlag)

	fmt.Println("--- Ablation 1: refactoring cut-size limit (GPU rf x1, no cleanup) ---")
	fmt.Printf("%-8s %-10s %-10s %-12s\n", "maxcut", "nodes", "levels", "model (s)")
	for _, k := range []int{4, 6, 8, 10, 12, 14} {
		d := device()
		out, _ := refactor.Parallel(d, a, refactor.Options{MaxCut: k})
		fmt.Printf("%-8d %-10d %-10d %-12s\n", k, out.NumAnds(), out.Levels(), fmtDur(d.Stats().ModeledTime))
	}

	fmt.Println("\n--- Ablation 2: the Section III-F cleanup pass after GPU rf ---")
	d := device()
	raw, _ := refactor.Parallel(d, a, refactor.Options{})
	cleaned, st := dedup.Run(d, raw)
	fmt.Printf("after rf: %d nodes; after cleanup: %d nodes (merged %d duplicates, %d trivial, %d dangling)\n",
		raw.NumAnds(), cleaned.NumAnds(), st.DuplicatesMerged, st.TriviallyReduced, st.DanglingRemoved)

	fmt.Println("\n--- Ablation 3: linear probing vs chaining (hash table of [9]) ---")
	fmt.Println("measured by the package's own benchmarks: go test -run '^$' -bench InsertQuery ./internal/hashtable")

	fmt.Println("\n--- Ablation 4: resubstitution extension (paper future work) ---")
	dRS := device()
	rsOut, rsSt := resub.Parallel(dRS, a)
	fmt.Printf("parallel rs: %d -> %d nodes (%d zero-resubs, %d one-resubs), model %s\n",
		a.NumAnds(), rsOut.NumAnds(), rsSt.ZeroResubs, rsSt.OneResubs, fmtDur(dRS.Stats().ModeledTime))
	r2, _ := runSeqScript(a, flow.Resyn2)
	crs, _ := runSeqScript(a, flow.CompressRS)
	fmt.Printf("sequential resyn2:      %d nodes / %d levels\n", r2.NumAnds(), r2.Levels())
	fmt.Printf("sequential compress-rs: %d nodes / %d levels\n", crs.NumAnds(), crs.Levels())
	pr2, _, _, _ := runParScript(a, flow.Resyn2)
	pcrs, _, _, _ := runParScript(a, flow.CompressRS)
	fmt.Printf("parallel resyn2:        %d nodes / %d levels\n", pr2.NumAnds(), pr2.Levels())
	fmt.Printf("parallel compress-rs:   %d nodes / %d levels\n", pcrs.NumAnds(), pcrs.Levels())
}
