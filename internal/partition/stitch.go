package partition

import (
	"fmt"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/sched"
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

// stitch replays the chosen cone of every partition into one fresh, fully
// strashed network. Partitions are replayed in index order (a partition's
// boundary inputs are produced by lower-indexed partitions or PIs), and the
// per-partition conflict counts report how many replayed nodes were broken
// at the seam: merged with a structural duplicate another partition already
// created, or simplified away against boundary constants. Dangling replay
// leftovers are compacted out.
func stitch(base *aig.AIG, parts []*part, chosen []*aig.AIG) (*aig.AIG, []int, error) {
	out := aig.NewCap(base.NumPIs(), base.NumObjs())
	out.EnableStrash()
	nobj := base.NumObjs()
	boundary := make([]aig.Lit, nobj) // base node id -> out literal (regular sense)
	have := make([]bool, nobj)
	have[0] = true
	boundary[0] = aig.ConstFalse
	for i := 0; i < base.NumPIs(); i++ {
		boundary[i+1] = base.PI(i)
		have[i+1] = true
	}
	conflicts := make([]int, len(parts))
	poLit := make([]aig.Lit, base.NumPOs())
	poSet := make([]bool, base.NumPOs())

	var local []aig.Lit
	for pi, p := range parts {
		c := chosen[pi]
		if cap(local) < c.NumObjs() {
			local = make([]aig.Lit, c.NumObjs())
		}
		local = local[:c.NumObjs()]
		local[0] = aig.ConstFalse
		if c.NumPIs() != len(p.inputs) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d PIs, want %d", pi, c.NumPIs(), len(p.inputs))
		}
		for j, in := range p.inputs {
			if !have[in] {
				return nil, nil, fmt.Errorf("partition: part %d input node %d not yet stitched", pi, in)
			}
			local[j+1] = boundary[in]
		}
		// Replay the cone's AND nodes. Optimized cones come out of the
		// guarded flow runner compacted (canonical topological id order);
		// deleted slots are skipped defensively.
		for id := int32(c.NumPIs() + 1); int(id) < c.NumObjs(); id++ {
			if c.IsDeleted(id) {
				continue
			}
			f0, f1 := c.Fanin0(id), c.Fanin1(id)
			l0 := local[f0.Var()].NotCond(f0.IsCompl())
			l1 := local[f1.Var()].NotCond(f1.IsCompl())
			before := out.NumObjs()
			lit := out.NewAnd(l0, l1)
			if out.NumObjs() == before {
				conflicts[pi]++
			}
			local[id] = lit
		}
		if c.NumPOs() != len(p.outputs)+len(p.poIdx) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d POs, want %d",
				pi, c.NumPOs(), len(p.outputs)+len(p.poIdx))
		}
		for j, outID := range p.outputs {
			l := c.PO(j)
			boundary[outID] = local[l.Var()].NotCond(l.IsCompl())
			have[outID] = true
		}
		for j, po := range p.poIdx {
			l := c.PO(len(p.outputs) + j)
			poLit[po] = local[l.Var()].NotCond(l.IsCompl())
			poSet[po] = true
		}
	}
	// POs not owned by any partition (const/PI-driven in cones mode, every
	// PO in levels mode) resolve through the boundary map.
	for i := 0; i < base.NumPOs(); i++ {
		if poSet[i] {
			continue
		}
		p := base.PO(i)
		if !have[p.Var()] {
			return nil, nil, fmt.Errorf("partition: PO %d driver node %d not stitched", i, p.Var())
		}
		poLit[i] = boundary[p.Var()].NotCond(p.IsCompl())
	}
	for _, l := range poLit {
		out.AddPO(l)
	}
	final, _ := out.Compact()
	out.ReleaseStrash()
	final.Name = base.Name
	return final, conflicts, nil
}

type resolveConfig struct {
	verify    bool
	rounds    int
	maxRounds int
	seed      int64
	mode      Mode
	pool      *sched.Pool
}

// doStitch picks the stitcher: cones-mode partitions have no cross-partition
// boundary edges, so they stitch through the two-phase parallel merge on the
// pool; levels mode keeps the sequential in-order replay its boundary chain
// requires.
func doStitch(base *aig.AIG, parts []*part, chosen []*aig.AIG, cfg resolveConfig) (*aig.AIG, []int, error) {
	if cfg.mode == Cones && cfg.pool != nil {
		return stitchParallel(base, parts, chosen, cfg.pool)
	}
	return stitch(base, parts, chosen)
}

// resolve runs the stitch / seam-gate / rollback loop. Each round stitches
// the currently chosen cones and gates the merged network against the base
// with the guarded runner's gate (aig.Check plus sampling equivalence, or
// full CEC under verify). On refutation it hunts the culprit with a deeper
// per-partition gate under a fresh seed, rolls it back to its
// pre-optimization cone, and re-stitches; past maxRounds (or when no culprit
// is found) every remaining optimized partition is rolled back at once,
// which makes the loop terminate: a stitch of nothing but pre-optimization
// cones reproduces the base network function exactly.
func resolve(base *aig.AIG, parts []*part, pres, chosen []*aig.AIG, cfg resolveConfig, res *Result) (*aig.AIG, error) {
	for round := 1; ; round++ {
		merged, conflicts, err := doStitch(base, parts, chosen, cfg)
		if err != nil {
			return nil, err
		}
		res.StitchRounds = round
		total := 0
		for _, c := range conflicts {
			total += c
		}
		res.ConflictsFound += total
		gerr := flow.EquivGate(base, merged, cfg.verify, cfg.rounds, cfg.seed+int64(round)*1009)
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
		if round <= cfg.maxRounds {
			for i := range parts {
				if chosen[i] == pres[i] {
					continue
				}
				seed := cfg.seed + int64(round)*6151 + int64(i)*7919
				if flow.EquivGate(pres[i], chosen[i], cfg.verify, 4*cfg.rounds, seed) != nil {
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
