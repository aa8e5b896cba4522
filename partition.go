package aigre

import (
	"fmt"

	"aigre/internal/partition"
)

// PartitionMode selects how Run splits a network for partition-parallel
// optimization. The zero value PartitionOff runs the script whole-network.
type PartitionMode = partition.Mode

const (
	// PartitionOff disables partitioning (the default).
	PartitionOff = partition.Off
	// PartitionCones clusters primary-output fanin cones into size-bounded
	// partitions. A node belongs to the first partition whose cone reaches
	// it and later partitions read it as an input, so no logic is optimized
	// twice; balancing sees those inputs at level 0, which can cost a few
	// levels of depth against the whole-network run. Best for wide
	// many-output designs and for deep, narrow designs that starve
	// kernel-level parallelism.
	PartitionCones = partition.Cones
	// PartitionLevels slices the network into contiguous level windows; a
	// window's inputs are PIs and lower-window nodes. Works on single-output
	// designs where cone clustering cannot split.
	PartitionLevels = partition.Levels
)

// ParsePartitionMode parses "off", "cones", or "levels".
func ParsePartitionMode(s string) (PartitionMode, error) {
	switch s {
	case "off", "":
		return PartitionOff, nil
	case "cones":
		return PartitionCones, nil
	case "levels":
		return PartitionLevels, nil
	}
	return PartitionOff, fmt.Errorf("aigre: unknown partition mode %q (want off, cones, or levels)", s)
}

// PartitionOptions configures partition-parallel script runs (see
// Options.Partition): the Mode (PartitionOff, the zero value, runs the script
// whole-network) and the partition size bound TargetSize in AND nodes
// (0 = 100000). See partition.Split for the field documentation.
type PartitionOptions = partition.Split

// PartitionStat reports one partition of a partition-parallel run, and
// PartitionReport summarizes the run (Result.Partition): the partitioning
// strategy, one PartitionStat row per partition, whole-network node counts,
// nodes held by more than one partition (0), seam conflicts found and broken,
// rollbacks and stitch rounds. See the partition package types for the field
// documentation.
type (
	PartitionStat   = partition.Stat
	PartitionReport = partition.Report
)
