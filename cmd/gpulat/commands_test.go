package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpulat/internal/service"
)

// stdout runs the command line args as main does and returns what the
// command wrote to standard output.
func stdout(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = commands()[args[0]](args[1:])
	os.Stdout = old
	if err != nil {
		t.Fatalf("gpulat %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCommandGoldens pins the bytes of the commands no other golden
// covers, at test scale, in testdata/commands.golden: `list` (both
// forms, the build's version masked), `config`, the `simrun -v` counter
// dump, an ablation table and `export`, whose per-load CSV is pinned by
// its SHA-256 and first lines. A command that takes -engine must print
// the same bytes under both engines. Refresh with GPULAT_GOLDEN=write.
func TestCommandGoldens(t *testing.T) {
	var got bytes.Buffer
	for _, args := range [][]string{
		{"list"},
		{"list", "-json"},
		{"config", "-arch", "GF100"},
		{"simrun", "-v", "-arch", "GF106", "-kernel", "vecadd"},
		{"ablate-sched", "-arch", "GF106", "-kernel", "bfs", "-vertices", "512"},
		{"export", "-arch", "GF106", "-kernel", "bfs", "-vertices", "512"},
	} {
		fmt.Fprintf(&got, "== %s ==\n", strings.Join(args, " "))
		out := stdout(t, args...)
		if args[0] != "list" && args[0] != "config" {
			if tick := stdout(t, append(args, "-engine", "tick")...); !bytes.Equal(tick, out) {
				t.Errorf("%s: -engine tick prints other bytes than the default engine", args)
			}
		}
		switch args[0] {
		case "list":
			out = bytes.ReplaceAll(out, []byte(service.Version()), []byte("<version>"))
		case "export":
			lines := bytes.SplitAfterN(out, []byte("\n"), 6)
			fmt.Fprintf(&got, "%d bytes, %d lines, sha256 %x; the first 5:\n", len(out), bytes.Count(out, []byte("\n")), sha256.Sum256(out))
			out = bytes.Join(lines[:5], nil)
		}
		got.Write(out)
	}
	matchGolden(t, "commands.golden", got.Bytes())
}
