// Datapath example: generate realistic arithmetic circuits (the workloads
// the paper's introduction motivates — multipliers, dividers, square roots),
// write them to AIGER, and compare sequential vs parallel optimization on
// each, including the delay guarantee of balancing (Property 3).
//
//	go run ./examples/datapath
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aigre"
	"aigre/internal/bench"
)

func main() {
	dir, err := os.MkdirTemp("", "aigre-datapath")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	for _, c := range []struct {
		name string
		n    *aigre.Network
	}{
		{"multiplier16", aigre.FromInternal(bench.Multiplier(16))},
		{"div16", aigre.FromInternal(bench.Div(16))},
		{"sqrt24", aigre.FromInternal(bench.Sqrt(24))},
	} {
		// Round-trip through AIGER like a real flow would.
		path := filepath.Join(dir, c.name+".aig")
		if err := c.n.WriteFile(path); err != nil {
			log.Fatal(err)
		}
		n, err := aigre.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", n.Stats())

		// Delay optimization: sequential and parallel balancing give the
		// same levels (the paper's Property 3).
		seqB, _ := n.Balance(context.Background(), aigre.Options{})
		parB, _ := n.Balance(context.Background(), aigre.Options{Parallel: true})
		fmt.Printf("  balance levels: sequential %d, parallel %d (must match)\n",
			seqB.AIG.Stats().Levels, parB.AIG.Stats().Levels)
		if seqB.AIG.Stats().Levels != parB.AIG.Stats().Levels {
			log.Fatal("Property 3 violated")
		}

		// Area optimization: two passes of parallel refactoring, the script
		// "rf; rf" (the paper's GPU rf x2).
		rf, _ := n.Run(context.Background(), "rf; rf", aigre.Options{Parallel: true})
		fmt.Printf("  refactor:  %d -> %d nodes (modeled device time %v)\n",
			n.Stats().Nodes, rf.AIG.Stats().Nodes, rf.Modeled)

		eq, err := rf.AIG.EquivalentTo(n)
		if err != nil || !eq {
			log.Fatalf("equivalence check failed: %v", err)
		}
		fmt.Println("  equivalence: ok")
	}
}
