package harpte_test

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
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
