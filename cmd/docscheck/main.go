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
// It also checks every daemon invocation the core documents and the
// verify skill write down — `cmd/ism -T 2000` in a code block, a
// built `bin/exs -rate 0`, TUNING's `cmd/relay -batch/-flush` —
// against the flag.X("name", …) calls in that daemon's source, so a
// deleted flag cannot linger in a documented run. Likewise every
// `briskbench <sub>` run in the core documents' code, the Makefile and
// the CI workflow must name a case of cmd/briskbench's main switch, so
// a deleted subcommand cannot either.
//
// Usage:
//
//	docscheck [root]
//
// Exits non-zero listing every broken link, stale option row, undefined
// flag and unknown subcommand. Run via `make docs-check`.
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
	"slices"
	"strconv"
	"strings"
	"unicode"
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

// daemons are the commands whose documented invocations are checked
// against their flag definitions.
var daemons = map[string]bool{"ism": true, "exs": true, "relay": true}

// flagDocs are the documents, besides requiredDocs, whose daemon
// invocations are checked.
var flagDocs = []string{".claude/skills/verify/SKILL.md"}

// benchRunFiles are the files, besides requiredDocs, whose briskbench
// runs are checked; only their non-comment text counts.
var benchRunFiles = []string{"Makefile", ".github/workflows/ci.yml"}

// benchRunRE matches a briskbench run, capturing its subcommand.
var benchRunRE = regexp.MustCompile(`briskbench\s+([a-z][a-z0-9]*)`)

// commentRE matches a shell, make or YAML comment to the end of a line.
var commentRE = regexp.MustCompile(`(?:^|\s)#.*`)

// segmentRE splits a line where a command's arguments end: a code-span
// edge, a table cell, a shell separator or a comment.
var segmentRE = regexp.MustCompile("`|\\||;|&&|(?:^|\\s)#")

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
	undefined, err := checkFlagMentions(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	unknown, err := checkBenchRuns(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	for _, s := range slices.Concat(stale, undefined, unknown) {
		fmt.Fprintf(os.Stderr, "docscheck: %s\n", s)
	}
	if broken > 0 || len(stale) > 0 || len(undefined) > 0 || len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s), %d stale option row(s), %d undefined flag(s), %d unknown subcommand(s)\n",
			broken, len(stale), len(undefined), len(unknown))
		os.Exit(1)
	}
	fmt.Println("docscheck: all Markdown links resolve, every option row names a field and every documented flag and subcommand exists")
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
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	structs := make(map[string]map[string]bool)
	for _, f := range files {
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

// checkFlagMentions returns one message per flag that a documented
// daemon invocation passes but the daemon does not define. A line
// ending in a backslash continues on the next.
func checkFlagMentions(root string) ([]string, error) {
	defined, err := daemonFlags(root)
	if err != nil {
		return nil, err
	}
	var undefined []string
	for _, doc := range slices.Concat(requiredDocs, flagDocs) {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if os.IsNotExist(err) {
			continue // a missing required document is reported on its own
		} else if err != nil {
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			at, line := i+1, lines[i]
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = line[:len(line)-1] + " " + lines[i]
			}
			for _, m := range invocationFlags(line) {
				if !defined[m[0]][m[1]] {
					undefined = append(undefined, fmt.Sprintf("%s:%d: cmd/%s has no flag -%s", doc, at, m[0], m[1]))
				}
			}
		}
	}
	return undefined, nil
}

// invocationFlags returns a {daemon, flag} pair for each flag written
// after a daemon invocation on one line. An invocation is `cmd/<daemon>`
// or a built binary's path ending in `/<daemon>` (but not a package
// path `internal/<daemon>`); its arguments run to the end of the
// segment. A flag joined to the next by a slash (`-batch/-flush`)
// counts as two; a value that looks like a flag (`-skew -20ms`) starts
// with a digit and is skipped.
func invocationFlags(line string) [][2]string {
	var out [][2]string
	for _, seg := range segmentRE.Split(line, -1) {
		tool := ""
		for _, tok := range strings.Fields(seg) {
			tok = strings.Trim(tok, "(),.:")
			if i := strings.LastIndexByte(tok, '/'); i >= 0 && daemons[tok[i+1:]] &&
				!strings.HasSuffix(tok[:i], "internal") {
				tool = tok[i+1:]
				continue
			}
			if tool == "" {
				continue
			}
			for _, part := range strings.Split(tok, "/") {
				name, ok := strings.CutPrefix(part, "-")
				name = strings.TrimPrefix(name, "-")
				name, _, _ = strings.Cut(name, "=")
				if ok && name != "" && unicode.IsLetter(rune(name[0])) {
					out = append(out, [2]string{tool, name})
				}
			}
		}
	}
	return out
}

// daemonFlags parses the non-test Go files of each daemon's command
// directory and returns the flag names its flag.X("name", …) and
// flag.XVar(&v, "name", …) calls define.
func daemonFlags(root string) (map[string]map[string]bool, error) {
	defined := make(map[string]map[string]bool)
	for tool := range daemons {
		files, err := parseDir(filepath.Join(root, "cmd", tool))
		if err != nil {
			return nil, err
		}
		names := make(map[string]bool)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				if len(call.Args) > arg {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							names[name] = true
						}
					}
				}
				return true
			})
		}
		defined[tool] = names
	}
	return defined, nil
}

// checkBenchRuns returns one message per briskbench run whose
// subcommand cmd/briskbench's main switch has no case for. In Markdown
// only code spans and fenced blocks are read, so prose about the
// command is not a run; in benchRunFiles, everything but comments.
func checkBenchRuns(root string) ([]string, error) {
	files, err := parseDir(filepath.Join(root, "cmd", "briskbench"))
	if err != nil {
		return nil, err
	}
	subs := make(map[string]bool)
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "main" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							subs[name] = true
						}
					}
				}
				return false
			})
		}
	}
	var unknown []string
	for _, doc := range slices.Concat(requiredDocs, benchRunFiles) {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		markdown, fenced := strings.HasSuffix(doc, ".md"), false
		for i, line := range strings.Split(string(data), "\n") {
			code := []string{line}
			if markdown {
				if strings.HasPrefix(strings.TrimSpace(line), "```") {
					fenced = !fenced
					continue
				}
				if !fenced {
					code = code[:0]
					for _, m := range codeRE.FindAllStringSubmatch(line, -1) {
						code = append(code, m[1])
					}
				}
			}
			for _, c := range code {
				for _, m := range benchRunRE.FindAllStringSubmatch(commentRE.ReplaceAllString(c, ""), -1) {
					if !subs[m[1]] {
						unknown = append(unknown, fmt.Sprintf("%s:%d: cmd/briskbench has no subcommand %s", doc, i+1, m[1]))
					}
				}
			}
		}
	}
	return unknown, nil
}

// parseDir parses the non-test Go files of the package in dir.
func parseDir(dir string) ([]*ast.File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
