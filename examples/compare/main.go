// Sequence comparison example: run the paper's optimization sequences
// (resyn2 and rf_resyn) in both execution modes on a control-logic circuit
// and print a side-by-side quality/runtime comparison with the per-command
// breakdown — a miniature of the paper's Table III and Figure 8.
//
//	go run ./examples/compare
package main

import (
	"context"
	"fmt"
	"log"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/flow"
)

func main() {
	n := aigre.FromInternal(bench.MemCtrl(3))
	fmt.Println("input:", n.Stats())

	for _, seq := range []struct{ name, script string }{
		{"rf_resyn", flow.RfResyn},
		{"resyn2", flow.Resyn2},
	} {
		fmt.Printf("\n--- %s (%q) ---\n", seq.name, seq.script)
		var results []*aigre.Network
		for _, parallel := range []bool{false, true} {
			res, err := n.Run(context.Background(), seq.script, aigre.Options{Parallel: parallel})
			if err != nil {
				log.Fatal(err)
			}
			mode := "sequential"
			if parallel {
				mode = "parallel  "
			}
			fmt.Printf("%s: %5d nodes %3d levels  wall=%-12v modeled=%v\n",
				mode, res.AIG.Stats().Nodes, res.AIG.Stats().Levels, res.Wall, res.Modeled)
			if parallel {
				bd := flow.Breakdown(res.Timings)
				fmt.Printf("  modeled breakdown: b=%v rw=%v rf=%v dedup=%v\n",
					bd["b"], bd["rw"], bd["rf"], bd["dedup"])
			}
			results = append(results, res.AIG)
		}
		for _, r := range results {
			eq, err := r.EquivalentTo(n)
			if err != nil || !eq {
				log.Fatalf("equivalence check failed: %v", err)
			}
		}
		fmt.Println("equivalence: both results verified")
	}
}
