package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureGo is a root package with one options struct.
const fixtureGo = `package brisk

type NodeOptions struct {
	BatchBytes    int
	FlushInterval int
}
`

// fixtureTuning holds one good row (a pair, both fields present), one
// stale row, and rows the check must skip: a header, a separator, a row
// whose second cell names another type, and one whose second cell only
// mentions an options struct in passing.
const fixtureTuning = "| Knob | Where | Effect |\n" +
	"|---|---|---|\n" +
	"| `BatchBytes` / `FlushInterval` | `NodeOptions` | good row |\n" +
	"| `MaxFlushInterval` | `NodeOptions` | stale row |\n" +
	"| `QueueBytes` | relay `Config` | other type |\n" +
	"| `clocksync.Config.FallbackStreak` | Not exposed by `NodeOptions`. |\n"

func TestCheckOptionTables(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"brisk.go": fixtureGo, "TUNING.md": fixtureTuning} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := checkOptionTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "TUNING.md:4: `MaxFlushInterval`") {
		t.Fatalf("stale rows = %q, want only the MaxFlushInterval row", stale)
	}
}

// TestRepoOptionTables runs the check on the repository itself.
func TestRepoOptionTables(t *testing.T) {
	stale, err := checkOptionTables(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) > 0 {
		t.Fatalf("TUNING.md names knobs the code no longer has:\n%s", strings.Join(stale, "\n"))
	}
}
