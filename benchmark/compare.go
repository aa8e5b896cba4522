package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadReports reads a bench.json (a list of reports) or a single workload
// report and returns the timed ones.
func loadReports(path string) ([]*report, error) {
	var reps []*report
	if err := readJSON(path, &reps); err != nil {
		var one report
		if err := readJSON(path, &one); err != nil {
			return nil, err
		}
		reps = []*report{&one}
	}
	var timed []*report
	for _, r := range reps {
		if !r.Trace {
			timed = append(timed, r)
		}
	}
	if len(timed) == 0 {
		return nil, fmt.Errorf("%s: no timed reports", path)
	}
	return timed, nil
}

// pooled gathers one workload's samples of one metric over all its runs.
func pooled(reps []*report, workload, metric string) []float64 {
	var xs []float64
	for _, r := range reps {
		if r.Workload == workload {
			xs = append(xs, r.EndToEnd[metric].Samples...)
		}
	}
	return xs
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate's samples with the base's. worse is the share
// of the base median by which the candidate's median is worse (negative when
// it is better). A metric whose own run-to-run spread exceeds the bound
// cannot resolve a change of the bound's size: unresolved, not ok.
func judge(def metricDef, base, cand []float64) (worse float64, verdict string) {
	mb, mc := median(base), median(cand)
	if mb == 0 {
		return 0, verdictUnresolved
	}
	worse = (mc - mb) / mb
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return worse, verdictRegressed
	}
	for _, xs := range [][]float64{base, cand} {
		if s, ok := spread(xs); ok && s > def.Bound {
			return worse, verdictUnresolved
		}
	}
	return worse, verdictOK
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any row regressed.
func compareFiles(w io.Writer, basePath, candPath string) int {
	var sets [2][]*report
	for i, path := range []string{basePath, candPath} {
		reps, err := loadReports(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sets[i] = reps
	}
	return compareReports(w, sets[0], sets[1])
}

func compareReports(w io.Writer, base, cand []*report) int {
	regressed := 0
	fmt.Fprintf(w, "%-13s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "cand median", "cand/base", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, c := pooled(base, wl.Name, def.Name), pooled(cand, wl.Name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			_, verdict := judge(def, b, c)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %9.4f %6.1f%%  %s (n=%d/%d)\n", wl.Name, def.Name,
				median(b), median(c), median(c)/median(b), 100*def.Bound, verdict, len(b), len(c))
		}
		fb, ab := failures(base, wl.Name)
		fc, ac := failures(cand, wl.Name)
		if ab == 0 || ac == 0 {
			continue
		}
		verdict := verdictOK
		if float64(fc)/float64(ac) > float64(fb)/float64(ab) { // failed_share may not rise
			verdict = verdictRegressed
			regressed++
		}
		fmt.Fprintf(w, "%-13s %-12s %11d/%-5d %11d/%-5d %9s %7s  %s\n", wl.Name, "failed_share", fb, ab, fc, ac, "", "0", verdict)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

func failures(reps []*report, workload string) (failed, attempted int) {
	for _, r := range reps {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}
