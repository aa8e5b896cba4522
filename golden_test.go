package aigre_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aigre"
)

// TestGoldenShapes pins the JSON forms of the public report types byte for
// byte: a PartitionReport as -report, -profile-json and the daemon embed it,
// and a BatchMetrics as GET /v1/stats emits it under "engine".
func TestGoldenShapes(t *testing.T) {
	for _, c := range []struct {
		file string
		v    any
	}{
		{"partition_report.golden.json", aigre.PartitionReport{
			Mode: "cones",
			Parts: []aigre.PartitionStat{
				{Index: 0, POs: 4, NodesIn: 700, NodesOut: 610, ConflictsBroken: 12,
					QueuedNS: 3 * time.Millisecond, WallNS: 80 * time.Millisecond, Incidents: 1},
				{Index: 1, LevelLo: 5, LevelHi: 9, NodesIn: 500, NodesOut: 500, RolledBack: true,
					Note: "flow: equivalence gate: output differs", QueuedNS: time.Millisecond,
					WallNS: 60 * time.Millisecond},
			},
			NodesIn: 1100, NodesOut: 1040, SharedNodes: 100, ConflictsFound: 15, ConflictsBroken: 12,
			Rollbacks: 1, StitchRounds: 2,
		}},
		{"batch_metrics.golden.json", aigre.BatchMetrics{
			Workers: 4, Finished: 5, Failed: 1, Cancelled: 2, TimedOut: 1, Quarantined: 1, Retries: 3,
			PeakWorkers: 4, PeakQueueDepth: 6, Wall: 2 * time.Second, JobWall: 5 * time.Second,
			Modeled: 300 * time.Millisecond, Utilization: 0.625,
			CacheStats: aigre.CacheStats{Hits: 10, Misses: 4, Evictions: 1, NpnHits: 200, NpnMisses: 22, Entries: 3},
		}},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s changed shape:\n got: %s\nwant: %s", c.file, got, want)
		}
	}
}
