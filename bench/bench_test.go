package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// smokeConfig is a run cut down to about a second of load.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		seed: 1, window: time.Second, warmup: 200 * time.Millisecond,
		setupPasses: 1, qualityCap: 2, tracedCap: 50,
		traceOut: filepath.Join(t.TempDir(), "spans.json"),
	}
}

func testLog(t *testing.T) io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

// TestSmoke runs every workload end to end, untraced and traced, and
// holds the results to the invariants the workloads were designed around.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "kdl_large" && testing.Short() {
				t.Skip("KDL set-up alone takes seconds")
			}
			cfg := smokeConfig(t)
			// KDL's set-up takes seconds, and its traced run has an
			// untraced window of its own: once is enough.
			if w.name != "kdl_large" {
				r, err := runUntraced(w, cfg, time.Now(), testLog(t))
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				for _, d := range endToEnd {
					// How many requests beat the limit depends on the machine
					// (none do under the race detector); the rest are never 0.
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || (!(m.Value > 0) && d.Name != "within_limit_share") {
						t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
					}
				}
				if got := r.Metrics["ok_share"].Value; got != 1 {
					t.Errorf("ok_share = %g, want 1", got)
				}
			}

			r, err := runTraced(w, cfg, time.Now(), testLog(t))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", r.Correct, r.Failed)
			}
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(r.Metrics), len(perLayer))
			}
			value := func(name string) float64 { return r.Metrics[name].Value }
			if got := value("reqtrace.self_sum_share"); got < 0.98 || got > 1.02 {
				t.Errorf("span self times sum to %g of root time, want within 2 %% of 1", got)
			}
			forward := value("core.forward_settrans_share") + value("core.forward_rau_share")
			if w.replay {
				if forward != 0 || value("resilience.cache_hit_share") != 1 {
					t.Errorf("replay: forward share %g, cache hit share %g, want 0 and 1", forward, value("resilience.cache_hit_share"))
				}
			} else {
				if forward < 0.5 || value("resilience.cache_hit_share") != 0 {
					t.Errorf("miss workload: forward share %g, cache hit share %g, want most of the request and 0", forward, value("resilience.cache_hit_share"))
				}
			}
			if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
				t.Errorf("-trace-out wrote nothing: %v", err)
			}
		})
	}
}

// TestCommittedWeights pins the model every number depends on: the
// committed file is the one the harness was calibrated with, and it still
// routes Abilene within 5 % of the optimum.
func TestCommittedWeights(t *testing.T) {
	if err := checkWeights(); err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("abilene_steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t)
	cfg.window, cfg.qualityCap = 200*time.Millisecond, 0
	r, err := runUntraced(w, cfg, time.Now(), testLog(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["norm_mlu_p50"].Value; got < 1-1e-9 || got > 1.05 {
		t.Errorf("Abilene norm_mlu_p50 = %g, want in [1, 1.05]", got)
	}
}

// TestStreamNeverRepeats checks what the cache invariants rest on: no two
// positions of a miss stream share a cache key, across laps too, and the
// replay stream is exactly its pool.
func TestStreamNeverRepeats(t *testing.T) {
	for _, name := range []string{"abilene_steady", "geant_churn", "hot_cache"} {
		w, _ := workloadByName(name)
		s, err := setUp(w, 1, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		defer s.fleet.Close()
		st := newStream(w, s.probs, 1, 20)
		seen := map[[2]uint64]int{}
		for i := 0; i < 3*len(st.demands); i++ {
			p, d := st.request(i)
			if err := resilience.ValidateInput(p, d); err != nil {
				t.Fatalf("%s: request %d: %v", name, i, err)
			}
			key := cacheKey(p, d)
			if j, dup := seen[key]; dup && !w.replay {
				t.Fatalf("%s: requests %d and %d share a cache key", name, j, i)
			}
			seen[key] = i
		}
		if w.replay && len(seen) != len(st.demands) {
			t.Errorf("%s: %d distinct keys over three laps, want the pool's %d", name, len(seen), len(st.demands))
		}
		if p, d := st.unseen(); w.replay {
			if _, dup := seen[cacheKey(p, d)]; dup {
				t.Errorf("%s: unseen() returned a pooled request", name)
			}
		}
	}
}

func cacheKey(p *te.Problem, d *tensor.Dense) [2]uint64 {
	topo, tm := resilience.CacheKey(p, d, 0)
	return [2]uint64{topo, tm}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheHarness keeps the declaration at the repo
// root and the tables in this package from drifting apart, and holds both
// to the declaration's own limits.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(raw))
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("command %q, paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	for _, group := range []struct {
		declared, implemented []metricDef
		bounded               bool
	}{{f.EndToEnd, endToEnd, true}, {f.PerLayer, perLayer, false}} {
		if len(group.declared) != len(group.implemented) {
			t.Fatalf("%d metrics declared, %d implemented", len(group.declared), len(group.implemented))
		}
		for i, d := range group.implemented {
			checkName(d.Name)
			if group.declared[i] != d {
				t.Errorf("metric %d: declared %+v, implemented %+v", i, group.declared[i], d)
			}
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
			if group.bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("metric %s: bound %g", d.Name, d.Bound)
			}
		}
	}
	if !used["setup_s"] {
		t.Error("setup_s is not declared")
	}
	for span, m := range spanMetrics {
		if !used[m.self] || (m.share != "" && !used[m.share]) {
			t.Errorf("span %s maps to undeclared metrics %q, %q", span, m.self, m.share)
		}
	}
}

// TestAPIDiscipline keeps the harness on the stack's stable surface, so
// the ROADMAP's deletions can land without editing the benchmark.
func TestAPIDiscipline(t *testing.T) {
	banned := regexp.MustCompile(`BatchMaxSize|BatchMaxLinger|EnableFloat32Inference|WithRAUIterations|obs\.Tracer`)
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(src); m != nil {
			t.Errorf("%s references %s, which the ROADMAP schedules for deletion", path, m)
		}
	}
}
