package main

import (
	"fmt"
	"time"

	"aigre/internal/flow"
)

// fig8 reproduces Figure 8: the per-command runtime breakdown (b, rw, rf,
// dedup) of the GPU rf_resyn and resyn2 sequences on every benchmark. The
// paper observes that b and dedup take a large share despite sequential
// balancing being cheap — both are level-wise parallel, so deep AIGs pay one
// kernel launch per level.
func fig8() {
	for _, script := range []struct{ name, cmds string }{
		{"GPU rf_resyn", flow.RfResyn},
		{"GPU resyn2", flow.Resyn2},
	} {
		fmt.Printf("\n--- %s: modeled time share per command ---\n", script.name)
		fmt.Printf("%-14s %8s %8s %8s %8s   %s\n", "Benchmark", "b%", "rw%", "rf%", "dedup%", "total model (s)")
		for _, c := range suiteCases() {
			a := c.Build()
			_, _, _, timings := runParScript(a, script.cmds)
			bd := flow.Breakdown(timings)
			total := time.Duration(0)
			for _, v := range bd {
				total += v
			}
			pct := func(k string) float64 {
				if total == 0 {
					return 0
				}
				return 100 * bd[k].Seconds() / total.Seconds()
			}
			fmt.Printf("%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%%   %s\n",
				c.Name, pct("b"), pct("rw"), pct("rf"), pct("dedup"), fmtDur(total))
		}
	}
	fmt.Println("\n(paper: b and dedup dominate on deep AIGs due to level-wise parallelism)")
}
