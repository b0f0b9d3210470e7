package harpte_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runDocs are the documents that tell a reader what to `go run` or
// `go test`.
var runDocs = []string{
	"README.md", "RUNBOOK.md", "DESIGN.md", "EXPERIMENTS.md",
	"cmd/*/README.md", ".claude/skills/verify/SKILL.md",
}

// goCommand matches a `go run` or `go test` command up to the end of its
// code span, line, pipe or comment.
var goCommand = regexp.MustCompile("go (run|test)\\b[^`|;#)\n]*")

// TestDocsRunExistingPrograms: every package path that a document quotes
// after `go run` or `go test` is a directory of this module, and a `go run`
// path is a main package. A deleted or renamed program fails here until
// the documents stop pointing at it.
func TestDocsRunExistingPrograms(t *testing.T) {
	var files []string
	for _, pattern := range runDocs {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s: no such document (%v)", pattern, err)
		}
		files = append(files, matches...)
	}
	checked := 0
	for _, file := range files {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goCommand.FindAllStringSubmatch(string(doc), -1) {
			run := m[1] == "run"
			for _, arg := range strings.Fields(m[0])[2:] {
				if !strings.HasPrefix(arg, "./") {
					continue
				}
				dir := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
				pkg, err := build.ImportDir(dir, 0)
				switch {
				case err != nil && !(strings.HasSuffix(arg, "...") && dirExists(dir)):
					t.Errorf("%s: %q names %s, which is not a package: %v", file, strings.TrimSpace(m[0]), arg, err)
				case run && pkg.Name != "main":
					t.Errorf("%s: %q runs %s, which is package %s, not main", file, strings.TrimSpace(m[0]), arg, pkg.Name)
				}
				checked++
				if run {
					break // what follows the package is the program's own arguments
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no document quotes a `go run` or `go test` path")
	}
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// metricName matches a harp_* series name as the operator documents quote
// it; a match ending in "_" is a family prefix (harp_fleet_*), not a name.
var metricName = regexp.MustCompile(`harp_[a-z0-9_]+`)

// TestOperatorDocsQuoteExportedMetrics: every complete harp_* name that
// README.md, RUNBOOK.md or a command's README quotes is a string literal in
// the program (non-test Go under internal/ or cmd/), after stripping the
// _bucket, _sum and _count suffixes a histogram's series add. A deleted or
// renamed series fails here until the documents stop naming it, so an
// alert or recording rule never watches a series nothing exports.
func TestOperatorDocsQuoteExportedMetrics(t *testing.T) {
	exported := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						exported[v] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob("cmd/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, file := range append([]string{"README.md", "RUNBOOK.md"}, files...) {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range metricName.FindAllString(string(doc), -1) {
			if strings.HasSuffix(name, "_") {
				continue
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
			if !exported[name] && !checked[name] {
				t.Errorf("%s quotes %s, which no non-test Go under internal/ or cmd/ exports", file, name)
			}
			checked[name] = true
		}
	}
	if len(checked) == 0 {
		t.Fatal("no operator document quotes a harp_* series")
	}
	t.Logf("%d quoted series names checked", len(checked))
}
