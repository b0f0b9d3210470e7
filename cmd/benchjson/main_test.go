package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkTrainStepAbilene-8   	      10	 124618117 ns/op	108195392 B/op	  165556 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkTrainStepAbilene-8" || r.Iterations != 10 {
		t.Fatalf("bad header: %+v", r)
	}
	if r.NsPerOp != 124618117 || r.BytesPerOp != 108195392 || r.AllocsPerOp != 165556 {
		t.Fatalf("bad measurements: %+v", r)
	}
}

func TestParseLineCustomMetric(t *testing.T) {
	r, ok := parseLine("BenchmarkFig04Transferability 	       1	9876543210 ns/op	         1.100 median-NormMLU")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Extra["median-NormMLU"] != 1.1 {
		t.Fatalf("custom metric lost: %+v", r)
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	harpte	12.3s",
		"BenchmarkBroken-8	notanumber	1 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parsed non-benchmark line %q", line)
		}
	}
}

// TestFoldRuns: `go test -count N` repeats every benchmark name N times, not
// necessarily adjacently; each name becomes one row — its median run whole,
// so iterations, bytes and custom metrics are that run's — with the spread
// beside it, and rows keep the order the names first appeared in.
func TestFoldRuns(t *testing.T) {
	var lines []Result
	for _, l := range []string{
		"BenchmarkSplitsAbilene/hit-2 	 900	 1410000 ns/op	 132.0 flows	 4960 B/op	 3 allocs/op",
		"BenchmarkSplitsAbilene/build-2 	 200	 5000000 ns/op",
		"BenchmarkSplitsAbilene/hit-2 	 1100	 1090000 ns/op	 132.0 flows	 4912 B/op	 2 allocs/op",
		"BenchmarkSplitsAbilene/hit-2 	 1000	 1200000 ns/op	 132.0 flows	 4944 B/op	 2 allocs/op",
		"BenchmarkSplitsAbilene/build-2 	 210	 4000000 ns/op",
		"BenchmarkSplitsAbilene/hit-2 	 1050	 1150000 ns/op	 132.0 flows	 4912 B/op	 2 allocs/op",
	} {
		r, ok := parseLine(l)
		if !ok {
			t.Fatalf("line did not parse: %q", l)
		}
		lines = append(lines, r)
	}
	want := []Result{
		{Name: "BenchmarkSplitsAbilene/hit-2", Runs: 4, Iterations: 1050, NsPerOp: 1150000, NsPerOpMin: 1090000, NsPerOpMax: 1410000,
			BytesPerOp: 4912, AllocsPerOp: 2, Extra: map[string]float64{"flows": 132}},
		{Name: "BenchmarkSplitsAbilene/build-2", Runs: 2, Iterations: 210, NsPerOp: 4000000, NsPerOpMin: 4000000, NsPerOpMax: 5000000},
	}
	if got := foldRuns(lines); !reflect.DeepEqual(got, want) {
		t.Fatalf("foldRuns:\n got %+v\nwant %+v", got, want)
	}
	if got := foldRuns(lines[1:2]); got[0].Runs != 1 || got[0].NsPerOpMin != 5000000 || got[0].NsPerOpMax != 5000000 {
		t.Fatalf("a single run must be its own median and spread: %+v", got[0])
	}
}
