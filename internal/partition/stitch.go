package partition

import (
	"context"
	"fmt"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
)

// rollbackIncident records a partition rollback as a classified incident, so
// the supervision journal and batch reports see seam repairs the same way
// they see contained kernel faults. Seam-gate rollbacks are transient — a
// fresh attempt re-partitions and usually lands clean ("Parallel AIG
// Refactoring via Conflict Breaking" treats conflicts as retryable) — while
// a local equivalence refutation is permanent.
func rollbackIncident(idx int, stage, class, detail string) flow.Incident {
	return flow.Incident{
		Index:   idx,
		Command: "partition",
		Stage:   stage,
		Action:  "rolled-back",
		Class:   class,
		Detail:  detail,
		Time:    time.Now(),
	}
}

// resolve runs the stitch / seam-gate / rollback loop. Each round stitches
// the currently chosen cones and gates the merged network against the base
// with the guarded runner's gate (aig.Check plus sampling equivalence, or
// full CEC under verify). On refutation it hunts the culprit with a deeper
// per-partition gate under a fresh seed, rolls it back to its
// pre-optimization cone, and re-stitches; past MaxConflictRounds (or when no
// culprit is found) every remaining optimized partition is rolled back at
// once, which makes the loop terminate: a stitch of nothing but
// pre-optimization cones reproduces the base network function exactly. A
// cancelled ctx ends the loop with ctx.Err() at the next liveness point.
func resolve(ctx context.Context, base *aig.AIG, parts []*part, pres, chosen []*aig.AIG, opts Options, res *Result) (*aig.AIG, error) {
	verify, rounds := opts.Flow.Verify, opts.Flow.GateRounds
	for round := 1; ; round++ {
		merged, conflicts, err := stitchParallel(ctx, base, parts, chosen, opts.Pool)
		if err != nil {
			return nil, err
		}
		if err := alive(ctx); err != nil {
			return nil, err
		}
		res.StitchRounds = round
		total := 0
		for _, c := range conflicts {
			total += c
		}
		res.ConflictsFound += total
		gerr := flow.EquivGate(base, merged, verify, rounds, gateSeed+int64(round)*1009)
		if gerr == nil {
			res.ConflictsBroken = total
			for i := range parts {
				res.Parts[i].ConflictsBroken = conflicts[i]
			}
			return merged, nil
		}
		allPre := true
		for i := range parts {
			if chosen[i] != pres[i] {
				allPre = false
				break
			}
		}
		if allPre {
			// Even the all-checkpoint stitch refuted: the failure is in the
			// stitcher or the base network itself, not in any partition.
			return nil, fmt.Errorf("partition: stitched checkpoint network refuted: %w", gerr)
		}
		rolled := false
		if round <= opts.MaxConflictRounds {
			for i := range parts {
				if chosen[i] == pres[i] {
					continue
				}
				if err := alive(ctx); err != nil {
					return nil, err
				}
				seed := gateSeed + int64(round)*6151 + int64(i)*7919
				if flow.EquivGate(pres[i], chosen[i], verify, 4*rounds, seed) != nil {
					chosen[i] = pres[i]
					res.Parts[i].RolledBack = true
					res.Parts[i].Note = "refuted during seam conflict round"
					res.Rollbacks++
					res.Incidents = append(res.Incidents, rollbackIncident(i,
						"seam-gate", flow.ClassTransient, "refuted during seam conflict round"))
					rolled = true
					break
				}
			}
		}
		if !rolled {
			// No individual culprit (the failure emerges only at the seams)
			// or the round budget is spent: drop every optimized cone.
			for i := range parts {
				if chosen[i] == pres[i] {
					continue
				}
				chosen[i] = pres[i]
				res.Parts[i].RolledBack = true
				res.Parts[i].Note = "rolled back with all partitions after seam refutation"
				res.Rollbacks++
				res.Incidents = append(res.Incidents, rollbackIncident(i,
					"seam-gate", flow.ClassTransient, "rolled back with all partitions after seam refutation"))
			}
		}
	}
}
