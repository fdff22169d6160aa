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

// fixtureISM defines two flags, one through each flag.X form.
const fixtureISM = `package main

import "flag"

var (
	addr = flag.String("addr", "", "listen address")
	t    int64
)

func init() { flag.Int64Var(&t, "T", 1000, "time frame") }
`

// fixtureReadme invokes the daemon from a code block (with a comment, a
// continuation line and a shell separator), from a built binary's path,
// and from a table cell, and names a package path that is no command.
const fixtureReadme = "```bash\n" +
	"go run ./cmd/ism -addr :7411 -T 2000   # -comment is not a flag\n" +
	"go run ./cmd/ism -addr :7411 \\\n  -merge 5ms && echo -n done\n" +
	"bin/ism --addr=:7411 -stats-http :7412\n" +
	"```\n" +
	"| `T` | `cmd/ism -T/-halflife` | pair |\n" +
	"Run `internal/ism -bogus` tests; `cmd/exs -rate 5` has no source here.\n"

func TestCheckFlagMentions(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"cmd/ism/main.go": fixtureISM, "README.md": fixtureReadme}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	undefined, err := checkFlagMentions(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:3: cmd/ism has no flag -merge",
		"README.md:5: cmd/ism has no flag -stats-http",
		"README.md:7: cmd/ism has no flag -halflife",
		"README.md:8: cmd/exs has no flag -rate",
	}
	if strings.Join(undefined, "\n") != strings.Join(want, "\n") {
		t.Fatalf("undefined flags:\n%s\nwant:\n%s", strings.Join(undefined, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoFlagMentions runs the flag check on the repository itself.
func TestRepoFlagMentions(t *testing.T) {
	undefined, err := checkFlagMentions(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(undefined) > 0 {
		t.Fatalf("documented runs pass flags the daemons no longer define:\n%s", strings.Join(undefined, "\n"))
	}
}

// fixtureBenchMain's main switch has two subcommands; the helper's
// switch is not main's and does not count.
const fixtureBenchMain = `package main

import "os"

func main() {
	switch os.Args[1] {
	case "notice", "all":
	default:
		os.Exit(2)
	}
}

func helper(s string) {
	switch s {
	case "ingest":
	}
}
`

// fixtureBenchReadme runs briskbench from a fenced block (with a
// comment), from code spans, and names it in prose that is no run.
const fixtureBenchReadme = "```bash\n" +
	"go run ./cmd/briskbench all   # briskbench comment is no run\n" +
	"go run ./cmd/briskbench ingest -sessions 8\n" +
	"```\n" +
	"`briskbench notice` and `cmd/briskbench sorter -cores heap` tables;\n" +
	"cmd/briskbench prints one table per experiment.\n"

// fixtureBenchMakefile runs a deleted subcommand and mentions one in a
// comment.
const fixtureBenchMakefile = "# briskbench benchgate used to run here\n" +
	"eval:\n\t$(GO) run ./cmd/briskbench benchgate -baseline x.json\n"

func TestCheckBenchRuns(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"cmd/briskbench/main.go": fixtureBenchMain,
		"README.md":              fixtureBenchReadme,
		"Makefile":               fixtureBenchMakefile,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unknown, err := checkBenchRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:3: cmd/briskbench has no subcommand ingest",
		"README.md:5: cmd/briskbench has no subcommand sorter",
		"Makefile:3: cmd/briskbench has no subcommand benchgate",
	}
	if strings.Join(unknown, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unknown subcommands:\n%s\nwant:\n%s", strings.Join(unknown, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoBenchRuns runs the subcommand check on the repository itself.
func TestRepoBenchRuns(t *testing.T) {
	unknown, err := checkBenchRuns(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) > 0 {
		t.Fatalf("documented runs name subcommands cmd/briskbench no longer has:\n%s", strings.Join(unknown, "\n"))
	}
}
