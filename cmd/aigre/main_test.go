package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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
