package main

// The committed ledger is held to two rules: every row states the size of
// the problem it measures, and a doc that quotes a row quotes it exactly.

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root, relative to this package's directory.
const repoRoot = "../.."

// docs are the documents whose tables may quote the ledger.
var docs = []string{"README.md", "DESIGN.md", "RUNBOOK.md", "EXPERIMENTS.md"}

// sizeUnits are the b.ReportMetric units that state a problem's size; k is
// a parameter beside them, checked in doc tables but not a size alone.
var sizeUnits = []string{"flows", "tokens", "nodes", "edges"}

var (
	procsSuffix = regexp.MustCompile(`-\d+$`)
	shapeName   = regexp.MustCompile(`(^|/)\d+x\d+x\d+(/|$)`)
	spreadQuote = regexp.MustCompile(`([\d.,]+) \[([\d.,]+)–([\d.,]+)\] (ns|µs|ms|s)\b`)
	allocsQuote = regexp.MustCompile(`([\d,]+) allocs/op`)
	leadingName = regexp.MustCompile("^`([^`]+)`")
	benchName   = regexp.MustCompile(`\bBenchmark\w+`)
	benchFunc   = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	nsPer       = map[string]float64{"ns": 1, "µs": 1e3, "ms": 1e6, "s": 1e9}
)

// committedLedger is BENCH_1.json keyed by row name as the docs write it:
// without the Benchmark prefix and the -GOMAXPROCS suffix.
func committedLedger(t *testing.T) map[string]Result {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	rows := map[string]Result{}
	for _, r := range l.Current {
		rows[procsSuffix.ReplaceAllString(strings.TrimPrefix(r.Name, "Benchmark"), "")] = r
	}
	if len(rows) == 0 {
		t.Fatal("BENCH_1.json has no rows")
	}
	return rows
}

// TestEveryLedgerRowStatesItsSize: a time means nothing without the size of
// the problem behind it, so every row names an NxMxK shape or reports one of
// sizeUnits.
func TestEveryLedgerRowStatesItsSize(t *testing.T) {
	for name, r := range committedLedger(t) {
		if shapeName.MatchString(name) {
			continue
		}
		sized := false
		for _, u := range sizeUnits {
			_, ok := r.Extra[u]
			sized = sized || ok
		}
		if !sized {
			t.Errorf("%s: no NxMxK shape in the name and none of %v in extra", name, sizeUnits)
		}
	}
}

// asPrinted renders v with as many decimals as printed, a number as a doc
// prints it, has.
func asPrinted(printed string, v float64) string {
	decimals := 0
	if i := strings.IndexByte(printed, '.'); i >= 0 {
		decimals = len(printed) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// quotes reports whether printed (thousands commas allowed) is v rounded to
// printed's decimals.
func quotes(printed string, v float64) bool {
	return asPrinted(printed, v) == strings.ReplaceAll(printed, ",", "")
}

// tableCells splits a markdown table line into trimmed cells.
func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(c)
	}
	return cells
}

// checkRow holds one table row that names ledger row r to it: every
// `m [lo–hi] unit` is r's median, min and max, every `N allocs/op` (or cell
// of an allocs/op column) its allocations, and every cell of a size or k
// column its extra.
func checkRow(header, cells []string, r Result) []string {
	var errs []string
	row := strings.Join(cells, " | ")
	for _, m := range spreadQuote.FindAllStringSubmatch(row, -1) {
		med, lo, hi := r.NsPerOp/nsPer[m[4]], r.NsPerOpMin/nsPer[m[4]], r.NsPerOpMax/nsPer[m[4]]
		if !quotes(m[1], med) || !quotes(m[2], lo) || !quotes(m[3], hi) {
			errs = append(errs, m[0]+", ledger "+asPrinted(m[1], med)+" ["+asPrinted(m[2], lo)+"–"+asPrinted(m[3], hi)+"] "+m[4])
		}
	}
	for _, m := range allocsQuote.FindAllStringSubmatch(row, -1) {
		if !quotes(m[1], float64(r.AllocsPerOp)) {
			errs = append(errs, m[0]+", ledger "+strconv.FormatInt(r.AllocsPerOp, 10))
		}
	}
	for i, h := range header {
		if i >= len(cells) {
			break
		}
		var want float64
		switch h = strings.Trim(h, "`"); h {
		case "allocs/op":
			want = float64(r.AllocsPerOp)
		case "flows", "tokens", "nodes", "edges", "k":
			v, ok := r.Extra[h]
			if !ok {
				errs = append(errs, "a "+h+" column, but the ledger row reports no "+h)
				continue
			}
			want = v
		default:
			continue
		}
		if !quotes(cells[i], want) {
			errs = append(errs, h+" "+cells[i]+", ledger "+strconv.FormatFloat(want, 'f', -1, 64))
		}
	}
	return errs
}

// benchmarkFuncs is every Benchmark function declared in the module's tests.
func benchmarkFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsQuoteTheLedger: a table row in the docs whose first cell is a
// backticked ledger row name (`SplitsKDL/build`) quotes that row exactly —
// see checkRow — and a table row that quotes a `m [lo–hi] unit` spread must
// name the ledger row it comes from. Every Benchmark function a doc names
// anywhere exists.
func TestDocsQuoteTheLedger(t *testing.T) {
	rows := committedLedger(t)
	funcs := benchmarkFuncs(t)
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		var header []string
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range benchName.FindAllString(line, -1) {
				if !funcs[name] {
					t.Errorf("%s:%d names %s, which no test file declares", doc, i+1, name)
				}
			}
			if !strings.HasPrefix(strings.TrimSpace(line), "|") {
				header = nil
				continue
			}
			cells := tableCells(line)
			if header == nil {
				header = cells
				continue
			}
			var r Result
			var ok bool
			if m := leadingName.FindStringSubmatch(cells[0]); m != nil {
				r, ok = rows[m[1]]
			}
			if !ok {
				if spreadQuote.MatchString(line) {
					t.Errorf("%s:%d quotes a spread but its first cell names no BENCH_1.json row", doc, i+1)
				}
				continue
			}
			for _, e := range checkRow(header, cells, r) {
				t.Errorf("%s:%d: %s", doc, i+1, e)
			}
		}
	}
}
