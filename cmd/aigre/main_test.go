package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aigre"
	"aigre/internal/bench"
)

// TestMain doubles as the CLI's entry point: the tests re-exec this binary
// with AIGRE_CHILD=1 and real aigre flags, and the child runs main.
func TestMain(m *testing.M) {
	if os.Getenv("AIGRE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args and returns its stdout. Exit code 3
// (degraded: contained incidents) is expected by the fault-injecting runs.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AIGRE_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 3) {
		t.Fatalf("aigre %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// keyPaths adds every JSON key path of v ("jobs[].partition.mode") to set.
func keyPaths(v any, prefix string, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			keyPaths(e, p, set)
		}
	case []any:
		for _, e := range v {
			keyPaths(e, prefix+"[]", set)
		}
	}
}

// checkKeyPaths compares the union of the documents' key paths with the
// golden list: the values of these reports are run-dependent, the schema is
// not.
func checkKeyPaths(t *testing.T, golden string, docs ...[]byte) {
	t.Helper()
	set := map[string]bool{}
	for _, d := range docs {
		var v any
		if err := json.Unmarshal(d, &v); err != nil {
			t.Fatalf("%v in:\n%s", err, d)
		}
		keyPaths(v, "", set)
	}
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: JSON key paths changed:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestReportSchemas pins the key paths of the two CLI JSON documents over
// runs that populate every optional section: a parallel shared-cache batch
// with an injected fault (incidents, cache) and a partitioned batch for
// -report; a faulted parallel run and a partitioned run for -profile-json.
func TestReportSchemas(t *testing.T) {
	in := filepath.Join("testdata", "adder8.aag")
	manifest := filepath.Join(t.TempDir(), "jobs.txt")
	if err := os.WriteFile(manifest, []byte(in+" b; rf\n"+in+" @2 resyn2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const fault = "refactor/resynth:1:panic"
	checkKeyPaths(t, "report.keys",
		runCLI(t, "-batch", manifest, "-parallel", "-shared-cache", "-inject", fault,
			"-outdir", t.TempDir(), "-report", "-"),
		runCLI(t, "-batch", manifest, "-partition", "cones", "-partition-size", "16", "-report", "-"))
	checkKeyPaths(t, "profile.keys",
		runCLI(t, "-in", in, "-script", "b; rf", "-parallel", "-inject", fault, "-profile-json", "-"),
		runCLI(t, "-in", in, "-script", "b; rw", "-partition", "cones", "-partition-size", "16", "-profile-json", "-"))
}

// TestSingleRunIsSupervised checks that the single -in run goes through the
// engine: -retries and -journal mean what they mean for a batch job. One
// injected kernel panic degrades the first attempt, the retry budget buys a
// clean second one (the fired plan is carried over), and the supervisor — not
// the command — writes the journal.
func TestSingleRunIsSupervised(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	runCLI(t, "-in", filepath.Join("testdata", "adder8.aag"), "-script", "b; rf", "-parallel",
		"-journal", journal, "-retries", "1", "-inject", "refactor/resynth:1:panic")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct {
			Event   string `json:"event"`
			Attempt int    `json:"attempt"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("%v in %s", err, line)
		}
		events = append(events, fmt.Sprintf("%s/%d", e.Event, e.Attempt))
	}
	const want = "attempt/1 incident/1 retry/1 attempt/2 done/2"
	if got := strings.Join(events, " "); got != want {
		t.Errorf("journal of a retried single run: %s, want %s", got, want)
	}
}

// TestResyn2DecidedOnce is the command's row of the library test of the same
// name: -resyn2 and the same commands spelled out in -script give the bytes
// Resyn2() gives (two rwz passes in parallel mode), with no decision of the
// command's own.
func TestResyn2DecidedOnce(t *testing.T) {
	a, ok := bench.ByName("ac97_ctrl", 1) // one and two rwz passes give different networks here
	if !ok {
		t.Fatal("ac97_ctrl missing from suite")
	}
	n := aigre.FromInternal(a)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.aig")
	if err := n.WriteFile(in); err != nil {
		t.Fatal(err)
	}
	n, err := aigre.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Resyn2(context.Background(), aigre.Options{Parallel: true, Workers: 2, Cache: aigre.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.AIG.Write(&want); err != nil {
		t.Fatal(err)
	}
	for _, script := range [][]string{{"-resyn2"}, {"-script", "b;rw;rf;b;rw;rwz;b;rfz;rwz;b"}} {
		out := filepath.Join(dir, "out.aig")
		runCLI(t, append([]string{"-in", in, "-parallel", "-workers", "2", "-out", out}, script...)...)
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("aigre %v: output differs from Resyn2()", script)
		}
	}
}

// TestNegativeFlagsRejected checks that a negative value of any numeric flag
// is a usage error, exit 2 with the one message of the shared check, where
// some of them used to mean "none" or the default.
func TestNegativeFlagsRejected(t *testing.T) {
	in := filepath.Join("testdata", "adder8.aag")
	for _, c := range []struct{ flag, value string }{
		{"workers", "-1"}, {"retries", "-1"}, {"max-jobs", "-3"}, {"partition-size", "-5"},
		{"timeout", "-1s"}, {"job-timeout", "-1s"}, {"stuck-timeout", "-1s"},
	} {
		cmd := exec.Command(os.Args[0], "-in", in, "-script", "b", "-"+c.flag, c.value)
		cmd.Env = append(os.Environ(), "AIGRE_CHILD=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		want := "-" + c.flag + " must be >= 0"
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), want) {
			t.Errorf("aigre -%s %s: %v, stderr %q; want exit 2 and %q", c.flag, c.value, err, stderr.String(), want)
		}
	}
}
