// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable benchmark ledger (BENCH_1..3.json).
//
//	go test -bench=. -benchmem -count 5 ./... | benchjson -out BENCH_1.json
//
// Lines that repeat a benchmark name (`go test -count N`) fold into one row:
// the median run, with the fastest and slowest ns/op and the run count
// beside it, so one slow phase of the host cannot be what gets committed.
// See the Performance section of the README for how to read the ledgers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark: its median run by ns/op (the lower middle one
// when Runs is even), and the spread of ns/op over all its runs.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds b.ReportMetric custom units (unit -> value).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Ledger is a BENCH_n.json document.
type Ledger struct {
	GoOS      string   `json:"goos,omitempty"`
	GoArch    string   `json:"goarch,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Benchmark string   `json:"benchmark_cmd,omitempty"`
	Current   []Result `json:"current"`
}

// benchLine matches "BenchmarkName-8   123   456 ns/op   789 B/op   12 allocs/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("out", "BENCH_1.json", "ledger file to write")
	cmd := flag.String("cmd", "", "record this as the command that produced the input")
	flag.Parse()

	ledger := Ledger{Benchmark: *cmd}
	var lines []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo so benchjson can sit at the end of a pipe without hiding output.
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			ledger.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			ledger.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			ledger.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseLine(line); ok {
				lines = append(lines, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	ledger.Current = foldRuns(lines)
	if len(ledger.Current) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	if err := write(*out, ledger); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(ledger.Current), *out)
}

// parseLine decodes one benchmark result line. Measurements come in
// "<value> <unit>" pairs; ns/op, B/op and allocs/op get dedicated fields,
// anything else (b.ReportMetric) lands in Extra.
func parseLine(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: m[1], Runs: 1, Iterations: iters}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

// foldRuns groups lines by benchmark name, in order of first appearance,
// into one Result each.
func foldRuns(lines []Result) []Result {
	var names []string
	groups := map[string][]Result{}
	for _, r := range lines {
		if _, seen := groups[r.Name]; !seen {
			names = append(names, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	var out []Result
	for _, name := range names {
		runs := groups[name]
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
		r := runs[(len(runs)-1)/2]
		r.Runs, r.NsPerOpMin, r.NsPerOpMax = len(runs), runs[0].NsPerOp, runs[len(runs)-1].NsPerOp
		out = append(out, r)
	}
	return out
}

func write(path string, l Ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
