// Command docscheck is the repository's documentation gate: it walks
// every Markdown file and verifies that each relative link — inline
// [text](target) and reference-style [label]: target — resolves to a
// file or directory in the tree. External URLs and intra-document
// anchors are skipped; a `#fragment` on a resolving file link is
// accepted without checking the heading. It also verifies that the
// repository's core documents (README, ARCHITECTURE, DESIGN, TUNING,
// OBSERVABILITY, EXPERIMENTS, ROADMAP) exist at the root, so renaming
// or dropping one fails the gate instead of silently orphaning its
// inbound links.
//
// Finally it checks TUNING.md's option tables against the root
// package's source: a row whose knob belongs to one of the public
// options structs (named in its second cell, or by a `Sorter.`,
// `Sync.` or `SensorOptions.` prefix) must name a field that struct
// has, so a deleted knob cannot linger in the tuning guide.
//
// Usage:
//
//	docscheck [root]
//
// Exits non-zero listing every broken link and stale option row. Run
// via `make docs-check`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline Markdown links, capturing the target. Images
// (![alt](target)) match too, which is what we want.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// refRE matches reference-style definitions: [label]: target
var refRE = regexp.MustCompile(`(?m)^\[[^\]]+\]:\s+(\S+)`)

// skipDirs are trees never scanned for Markdown or used as link targets.
var skipDirs = map[string]bool{".git": true, "testdata": false}

// requiredDocs must exist at the repository root: the documentation set
// the rest of the tree links into.
var requiredDocs = []string{
	"README.md", "ARCHITECTURE.md", "DESIGN.md", "TUNING.md",
	"OBSERVABILITY.md", "EXPERIMENTS.md", "ROADMAP.md",
}

// optionStructs are the root package's options structs a TUNING.md row
// may name in its second cell.
var optionStructs = map[string]bool{
	"ManagerOptions": true, "NodeOptions": true, "SorterOptions": true,
	"SyncOptions": true, "SensorOptions": true, "SubscribeOptions": true,
}

// optionPrefixes map a knob-name prefix to the options struct holding
// the rest of the name.
var optionPrefixes = map[string]string{
	"Sorter.": "SorterOptions", "Sync.": "SyncOptions", "SensorOptions.": "SensorOptions",
}

// codeRE matches one backticked code span, capturing its text.
var codeRE = regexp.MustCompile("`([^`]+)`")

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken := 0
	for _, doc := range requiredDocs {
		if _, err := os.Stat(filepath.Join(root, doc)); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: required document %s missing\n", doc)
			broken++
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		broken += checkFile(path)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	stale, err := checkOptionTables(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "docscheck: %s\n", s)
	}
	if broken > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s), %d stale option row(s)\n", broken, len(stale))
		os.Exit(1)
	}
	fmt.Println("docscheck: all Markdown links resolve and every option row names a field")
}

// checkFile verifies every relative link in one Markdown file, printing
// each broken one, and returns how many were broken.
func checkFile(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", path, err)
		return 1
	}
	broken := 0
	targets := make([]string, 0, 16)
	for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
		targets = append(targets, m[1])
	}
	for _, m := range refRE.FindAllStringSubmatch(string(data), -1) {
		targets = append(targets, m[1])
	}
	for _, target := range targets {
		if !checkTarget(path, target) {
			fmt.Fprintf(os.Stderr, "docscheck: %s: broken link %q\n", path, target)
			broken++
		}
	}
	return broken
}

// checkTarget reports whether one link target from the given file
// resolves. Non-relative targets (URLs, mailto, pure anchors) pass.
func checkTarget(from, target string) bool {
	if strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#") {
		return true
	}
	// Drop a trailing #fragment; the file part is what must exist.
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
		if target == "" {
			return true
		}
	}
	_, err := os.Stat(filepath.Join(filepath.Dir(from), target))
	return err == nil
}

// checkOptionTables reads root/TUNING.md and returns one message per
// table-row knob that names an options struct (by the row's second cell
// or the knob's own prefix) but no field of it. The first cell's
// backticked name is the knob; names joined by " / " are checked each.
// Rows naming no options struct are skipped. Table cells are split on
// every "|", so a knob row must not carry one inside a code span.
func checkOptionTables(root string) ([]string, error) {
	structs, err := structFields(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "TUNING.md"))
	if err != nil {
		return nil, err
	}
	var stale []string
	for i, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 4 {
			continue
		}
		// The second cell names a struct only when it opens with one; an
		// Effect cell may mention a struct further in.
		where := ""
		second := strings.TrimSpace(cells[2])
		if m := codeRE.FindStringSubmatch(second); m != nil && strings.HasPrefix(second, m[0]) && optionStructs[m[1]] {
			where = m[1]
		}
		for _, part := range strings.Split(cells[1], " / ") {
			m := codeRE.FindStringSubmatch(part)
			if m == nil {
				continue
			}
			field, prefixed := m[1], ""
			for prefix, s := range optionPrefixes {
				if strings.HasPrefix(field, prefix) {
					field, prefixed = strings.TrimPrefix(field, prefix), s
				}
			}
			if where == "" && prefixed == "" {
				continue
			}
			if !structs[where][field] && !structs[prefixed][field] {
				owner := where
				if owner == "" {
					owner = prefixed
				}
				stale = append(stale, fmt.Sprintf("TUNING.md:%d: `%s` is not a field of %s", i+1, m[1], owner))
			}
		}
	}
	return stale, nil
}

// structFields parses the non-test Go files of the package in dir and
// returns each struct type's field names.
func structFields(dir string) (map[string]map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	structs := make(map[string]map[string]bool)
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				fields := make(map[string]bool)
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						fields[name.Name] = true
					}
				}
				structs[ts.Name.Name] = fields
			}
			return false
		})
	}
	return structs, nil
}
