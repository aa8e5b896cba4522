// Package sched is the batch-optimization engine: it runs many (AIG,
// script) jobs concurrently over a shared, bounded host worker budget.
//
// The paper's system optimizes one AIG per invocation and sizes its worker
// pool to the whole machine; a service optimizing N designs at once would
// oversubscribe the host N-fold. Here one gpu.Pool owns the host worker
// budget, jobs lease capped devices from it (gpu.Pool.Lease), and an Engine
// runs each job through Do — alone, or a slice of them in priority order by
// Batch — under the guarded flow.Run with per-job and engine-wide context
// cancellation, and aggregates per-job Results plus fleet Metrics.
package sched

import "aigre/internal/gpu"

// Pool and NewPool keep the pool's pre-move names for the benchmark module,
// which is versioned separately and still spells them gpu.Pool and
// gpu.NewPool (like RunJobs). Code in this module uses gpu.Pool.
type Pool = gpu.Pool

// NewPool is gpu.NewPool.
func NewPool(workers int) *Pool { return gpu.NewPool(workers) }
