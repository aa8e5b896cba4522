// Batch mode: run a manifest of (input, script) jobs concurrently over one
// shared worker budget via aigre.RunBatch, write the optimized outputs, and
// emit a JSON fleet report.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"aigre"
	"aigre/internal/flow"
)

// parseManifest reads a batch manifest: one job per line,
//
//	input.aig [@priority] script
//
// where script is a preset name (resyn2, rf_resyn, compress2rs) or an
// inline command sequence like "b; rw; rfz" (the rest of the line). Blank
// lines and #-comments are skipped.
func parseManifest(path string, opts aigre.Options) ([]aigre.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var jobs []aigre.Batch
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"input.aig [@priority] script\", got %q", path, lineno, line)
		}
		input := fields[0]
		rest := fields[1:]
		priority := 0
		if strings.HasPrefix(rest[0], "@") {
			priority, err = strconv.Atoi(rest[0][1:])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad priority %q", path, lineno, rest[0])
			}
			rest = rest[1:]
			if len(rest) == 0 {
				return nil, fmt.Errorf("%s:%d: missing script after priority", path, lineno)
			}
		}
		script := strings.Join(rest, " ")
		switch script {
		case "resyn2":
			script = aigre.ScriptResyn2
		case "rf_resyn":
			script = aigre.ScriptRfResyn
		case "compress2rs":
			script = aigre.ScriptCompressRS
		}
		if _, err := flow.Parse(script); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		n, err := aigre.ReadFile(input)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		jobs = append(jobs, aigre.Batch{
			Name:     strings.TrimSuffix(filepath.Base(input), filepath.Ext(input)),
			AIG:      n,
			Script:   script,
			Priority: priority,
			Options:  opts,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// batchReport is the JSON schema of -report: the fleet metrics as the engine
// reports them (the object aigred serves as "engine" in /v1/stats), then one
// row per job.
type batchReport struct {
	aigre.BatchMetrics
	Jobs []batchJobReport `json:"jobs"`
}

// batchJobReport is one -report row: the job's Result (whose JSON form is
// the row) plus what only the CLI knows.
type batchJobReport struct {
	aigre.Result
	Error  string `json:"error,omitempty"`
	Output string `json:"output,omitempty"`
}

// runBatch is the -batch entry point; it returns the process exit code:
// 0 clean, 1 infrastructure error, 2 bad manifest, 3 degraded (incidents
// recorded), 4 at least one job failed / timed out / cancelled / quarantined.
func runBatch(ctx context.Context, manifest, outdir, reportPath string, bopts aigre.BatchOptions, opts aigre.Options) int {
	msg := os.Stdout
	if reportPath == "-" {
		msg = os.Stderr
	}
	jobs, err := parseManifest(manifest, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigre:", err)
		return 2
	}
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "aigre:", err)
			return 1
		}
	}
	results, m, err := aigre.RunBatch(ctx, jobs, bopts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigre:", err)
		return 1
	}
	rep := batchReport{BatchMetrics: m}
	var infra, casualty, degraded bool
	for _, r := range results {
		jr := batchJobReport{Result: r}
		switch {
		case r.Err != nil:
			jr.Error = r.Err.Error()
			status := "FAILED"
			switch {
			case r.Quarantined:
				status = "QUARANTINED"
			case r.TimedOut:
				status = "timed out"
			case r.Cancelled:
				status = "cancelled"
			}
			fmt.Fprintf(msg, "%-16s %s: %v\n", r.Name, status, r.Err)
			casualty = true
		default:
			retried := ""
			if r.Attempts > 1 {
				retried = fmt.Sprintf("  attempts=%d", r.Attempts)
			}
			fmt.Fprintf(msg, "%-16s and %6d -> %6d  lev %4d  wall=%-12v queued=%v%s\n",
				r.Name, r.NodesBefore, r.NodesAfter, r.LevelsAfter, r.Wall, r.Queued, retried)
			if len(r.Incidents) > 0 {
				degraded = true
			}
		}
		if outdir != "" && r.Err == nil && r.AIG != nil {
			out := filepath.Join(outdir, r.Name+".aig")
			if err := r.AIG.WriteFile(out); err != nil {
				fmt.Fprintln(os.Stderr, "aigre:", err)
				infra = true
			} else {
				jr.Output = out
			}
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	fmt.Fprintf(msg, "batch:   %d jobs (%d ok, %d failed, %d cancelled, %d timed out, %d quarantined, %d retries)  workers=%d peak=%d util=%.0f%%  wall=%v\n",
		len(results), m.Finished, m.Failed, m.Cancelled, m.TimedOut, m.Quarantined, m.Retries,
		m.Workers, m.PeakWorkers, 100*m.Utilization, m.Wall)
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigre:", err)
			return 1
		}
		data = append(data, '\n')
		if reportPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "aigre:", err)
			return 1
		}
	}
	switch {
	case infra:
		return 1
	case casualty:
		return 4
	case degraded:
		return 3
	}
	return 0
}
