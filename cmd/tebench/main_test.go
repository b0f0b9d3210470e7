package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"harpte/internal/experiments"
)

// designIDs returns the `tebench <id>` entries of DESIGN.md §4, the
// experiment index, in the order the table lists them.
func designIDs(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 4")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var ids []string
	for _, m := range regexp.MustCompile("`tebench ([\\w-]+)`").FindAllStringSubmatch(sec, -1) {
		ids = append(ids, m[1])
	}
	if len(ids) == 0 {
		t.Fatal("DESIGN.md §4 names no `tebench <id>`")
	}
	return ids
}

// TestRunnersMatchTheExperimentIndex: every experiment DESIGN.md §4 says
// tebench regenerates has a runner, the two §7 extensions do too, and there
// is no other; -list (and `tebench all`) takes them in sorted order. Building
// the runners runs no experiment.
func TestRunnersMatchTheExperimentIndex(t *testing.T) {
	want := append(designIDs(t), "ext-shift", "ext-objectives")
	sort.Strings(want)
	got := sortedIDs(buildRunners(experiments.Small, 1, 0, experiments.Progress{}, ""))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tebench -list = %v\nDESIGN.md §4 + extensions = %v", got, want)
	}
}
