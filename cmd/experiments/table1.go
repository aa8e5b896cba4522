package main

import (
	"fmt"
	"time"

	"aigre/internal/gpu"
	"aigre/internal/refactor"
	"aigre/internal/rewrite"
)

// table1 reproduces Table I: the normalized modeled runtime of the
// host-sequential part of three parallel algorithms, averaged over the
// benchmark suite. In the paper: GPU rewriting 1.0 (its replacement step is
// sequential), refactoring with sequential replacement 1.6, and the proposed
// refactoring 0.6 (only post-processing remains sequential; in this
// reproduction the cleanup pass is also a parallel kernel, so the proposed
// sequential part is smaller still).
func table1() {
	var rwSeq, rfSeqRepl, rfProposed time.Duration
	n := 0
	for _, c := range suiteCases() {
		a := c.Build()

		dRW := device()
		rewrite.Parallel(dRW, a, rewrite.Options{})
		rwSeq += dRW.Stats().SeqTime

		dSR := device()
		refactor.Parallel(dSR, a, refactor.Options{SequentialReplacement: true})
		rfSeqRepl += dSR.Stats().SeqTime

		proposed := gpu.TotalProfile(runParCommand(a, "rf", 1).Profile).Seq
		rfProposed += proposed
		n++
		fmt.Printf("  %-14s rw-seq-part=%-12v rf-seqrepl-part=%-12v rf-proposed-part=%v\n",
			c.Name, dRW.Stats().SeqTime.Round(time.Microsecond), dSR.Stats().SeqTime.Round(time.Microsecond), proposed.Round(time.Microsecond))
	}
	base := rwSeq.Seconds() / float64(n)
	fmt.Println()
	fmt.Println("TABLE I: Normalized sequential part runtimes (average over suite)")
	fmt.Printf("%-28s %-12s %s\n", "Algorithm", "Norm. seq.", "(paper)")
	fmt.Printf("%-28s %-12.2f %s\n", "GPU rw [9]", rwSeq.Seconds()/float64(n)/base, "1.0")
	fmt.Printf("%-28s %-12.2f %s\n", "rf w/ seq. replace", rfSeqRepl.Seconds()/float64(n)/base, "1.6")
	fmt.Printf("%-28s %-12.2f %s\n", "rf (proposed)", rfProposed.Seconds()/float64(n)/base, "0.6")
}
