package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// resultsFile is what `go run ./bench -out` writes and -compare reads:
// every number with the conditions it was measured under.
type resultsFile struct {
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Clients    int               `json:"clients"`
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	Go         string            `json:"go"`
	Workloads  []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name     string        `json:"name"`
	Problems []problemSize `json:"problems"`
	// EndToEnd holds every untraced run's value per metric; the median
	// and spread are derived when compared or printed.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload, each run in a fresh process: back-to-back
// workloads in one process moved Abilene throughput by 30 %.
func runAll(log io.Writer, seed int64, seconds float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Commit: gitCommit(), Seed: seed, Seconds: seconds, Clients: clients,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version(),
	}
	for _, w := range workloads {
		wr := workloadResults{Name: w.name, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		for i := 0; i < runs; i++ {
			r, sizes, err := runChild(log, self, w.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			wr.Problems = sizes
			for name, m := range r.Metrics {
				wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
			}
		}
		r, _, err := runChild(log, self, w.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		for name, m := range r.Metrics {
			wr.PerLayer[name] = m.Value
		}
		file.Workloads = append(file.Workloads, wr)
	}
	if out == "" {
		return nil
	}
	return writeJSON(out, file)
}

// runChild runs one workload in a child process, passing its output
// through, and returns the result line and the problem sizes it printed.
func runChild(log io.Writer, self, workload string, seed int64, seconds float64, trace int) (result, []problemSize, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, nil, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, nil, err
	}
	var last string
	var sizes []problemSize
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(log, last) // everything but the result line
		}
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "problem: "); ok {
			var size problemSize
			if err := json.Unmarshal([]byte(rest), &size); err == nil {
				sizes = append(sizes, size)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return result{}, nil, fmt.Errorf("workload %s (trace %d): %w; last line: %s", workload, trace, err, last)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, nil, fmt.Errorf("workload %s (trace %d): result line %q: %w", workload, trace, last, err)
	}
	fmt.Fprintln(log)
	return r, sizes, nil
}

// compareFiles prints, per workload and end-to-end metric, old and new
// medians, how much worse new is, and the bound, and returns an error if
// any metric regressed. A metric whose own run-to-run spread exceeds its
// bound is unresolved, not unchanged — unless every new run beats every
// old one.
func compareFiles(log io.Writer, oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds || old.Clients != cur.Clients {
		return fmt.Errorf("not comparable: seed %d vs %d, seconds %g vs %g, clients %d vs %d",
			old.Seed, cur.Seed, old.Seconds, cur.Seconds, old.Clients, cur.Clients)
	}
	fmt.Fprintf(log, "old: commit %s, %s, nproc %d, GOMAXPROCS %d, %s\n", old.Commit, old.CPU, old.Nproc, old.GOMAXPROCS, old.Go)
	fmt.Fprintf(log, "new: commit %s, %s, nproc %d, GOMAXPROCS %d, %s\n", cur.Commit, cur.CPU, cur.Nproc, cur.GOMAXPROCS, cur.Go)
	fmt.Fprintf(log, "%-15s %-19s %12s %12s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	regressions := 0
	for _, ow := range old.Workloads {
		var nw *workloadResults
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			return fmt.Errorf("workload %s is missing from %s", ow.Name, newPath)
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if len(o) == 0 || len(n) == 0 {
				return fmt.Errorf("workload %s: metric %s is missing", ow.Name, d.Name)
			}
			worse, v := judge(d, o, n)
			if v == regression {
				regressions++
			}
			fmt.Fprintf(log, "%-15s %-19s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n",
				ow.Name, d.Name, median(o), median(n), 100*worse, 100*d.Bound, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

const (
	unchanged  = "ok"
	better     = "ok: every new run beats every old run"
	unresolved = "unresolved: run-to-run spread exceeds the bound"
	regression = "REGRESSION"
)

// judge returns how much worse the new runs' median is than the old runs'
// as a share of the old, and the verdict under d's bound.
func judge(d metricDef, old, cur []float64) (worse float64, verdict string) {
	sign := 1.0 // lower is better: growing is worse
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (median(cur) - median(old)) / median(old)
	if spread(old) > d.Bound || spread(cur) > d.Bound {
		for _, o := range old {
			for _, n := range cur {
				if sign*(n-o) >= 0 {
					return worse, unresolved
				}
			}
		}
		return worse, better
	}
	if worse > d.Bound {
		return worse, regression
	}
	return worse, unchanged
}
