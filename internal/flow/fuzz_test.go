package flow

import (
	"slices"
	"strings"
	"testing"
)

// FuzzScript pins the contract of Parse: arbitrary text must never panic,
// every command it accepts is an entry of the command table, and the
// accepted list, joined back into a canonical script, parses to itself.
func FuzzScript(f *testing.F) {
	for _, s := range []string{Resyn2, RfResyn, CompressRS, "b;rw;rf;b;rw;rwz;b;rfz;rwz;b",
		"rf; rf", " b ;; dedup ;", "", ";", "b; frob", "rw\tz", "B", "b;\x00rw"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		cmds, err := Parse(script)
		if err != nil {
			return
		}
		for _, c := range cmds {
			if _, ok := commands[c]; !ok {
				t.Fatalf("Parse(%q) accepted %q, which is not a command", script, c)
			}
		}
		canon := strings.Join(cmds, "; ")
		again, err := Parse(canon)
		if err != nil || !slices.Equal(again, cmds) {
			t.Fatalf("Parse(%q) = %q, but its join %q parses to %q (%v)", script, cmds, canon, again, err)
		}
	})
}
