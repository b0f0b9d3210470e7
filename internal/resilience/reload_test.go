package resilience

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
)

// saveModel writes m to a fresh file under t.TempDir and returns the path.
func saveModel(t *testing.T, m *core.Model, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadSwapsModel(t *testing.T) {
	p := twoPathProblem()
	cfgB := tinyConfig()
	cfgB.Seed = 99 // different init, so the generations answer differently
	pathB := saveModel(t, core.New(cfgB), "b.model")

	srv := NewServer(core.New(tinyConfig()), Options{Probe: p, ProbeDemand: demand(p, 4, 2)})
	before := srv.Serve(p, demand(p, 4, 2))
	if before.Tier != TierFull {
		t.Fatalf("pre-reload tier %v", before.Tier)
	}
	if err := srv.Reload(pathB); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("generation %d, want 1", srv.Generation())
	}
	after := srv.Serve(p, demand(p, 4, 2))
	if after.Tier != TierFull {
		t.Fatalf("post-reload tier %v (degraded %v)", after.Tier, after.Degraded)
	}
	assertValidSplits(t, p, after.Splits)
	same := true
	for i := range before.Splits.Data {
		if before.Splits.Data[i] != after.Splits.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("splits identical before and after reload; the new weights are not serving")
	}
	if st := srv.Stats(); st.Generation != 1 || st.ReloadFailures != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReloadRejectsCorruptFile: a file that fails decode must leave the
// serving model untouched and count as a failed reload.
func TestReloadRejectsCorruptFile(t *testing.T) {
	p := twoPathProblem()
	bad := filepath.Join(t.TempDir(), "bad.model")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.New(tinyConfig()), Options{})
	if err := srv.Reload(bad); err == nil {
		t.Fatal("reload of garbage succeeded")
	}
	if err := srv.Reload(filepath.Join(t.TempDir(), "missing.model")); err == nil {
		t.Fatal("reload of a missing file succeeded")
	}
	if srv.Generation() != 0 {
		t.Fatalf("failed reloads bumped the generation to %d", srv.Generation())
	}
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("old model no longer serving after failed reload: tier %v", dec.Tier)
	}
	st := srv.Stats()
	if st.Generation != 0 || st.ReloadFailures != 2 {
		t.Fatalf("stats %+v: want 0 reloads, 2 failures", st)
	}
	// A failed reload is not a tier failure: no breaker state may change.
	if st.BreakerTrips != 0 {
		t.Fatalf("failed reload tripped a breaker: %+v", st)
	}
}

// TestReloadCanaryRejectsSickModel: a checkpoint whose weights are finite
// (so it decodes cleanly) but large enough to overflow the forward pass
// must be caught by the canary inference, not swapped in.
func TestReloadCanaryRejectsSickModel(t *testing.T) {
	p := twoPathProblem()
	sick := core.New(tinyConfig())
	for _, prm := range sick.Params() {
		for i := range prm.Val.Data {
			prm.Val.Data[i] = 1e308 // finite, but Inf/NaN after one matmul
		}
	}
	path := saveModel(t, sick, "sick.model")

	srv := NewServer(core.New(tinyConfig()), Options{Probe: p, ProbeDemand: demand(p, 4, 2)})
	err := srv.Reload(path)
	if err == nil {
		t.Fatal("canary let an overflowing model through")
	}
	if srv.Generation() != 0 {
		t.Fatalf("generation %d after failed canary", srv.Generation())
	}
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("old model not serving after failed canary: tier %v (degraded %v)", dec.Tier, dec.Degraded)
	}
}

// TestReloadCanaryFallsBackToLastServedProblem: with no pinned probe the
// canary uses the most recently served problem, so a sick model is still
// rejected once the server has any serving history.
func TestReloadCanaryFallsBackToLastServedProblem(t *testing.T) {
	p := twoPathProblem()
	sick := core.New(tinyConfig())
	for _, prm := range sick.Params() {
		for i := range prm.Val.Data {
			prm.Val.Data[i] = 1e308
		}
	}
	path := saveModel(t, sick, "sick.model")

	srv := NewServer(core.New(tinyConfig()), Options{})
	srv.Serve(p, demand(p, 4, 2)) // pins lastProb
	if err := srv.Reload(path); err == nil {
		t.Fatal("canary (last-served fallback) let an overflowing model through")
	}
	if srv.Generation() != 0 {
		t.Fatal("sick model was swapped in")
	}
}

// TestServeReloadDrainConcurrently is the churn hammer: many goroutines
// serve while another reloads repeatedly and a drain closes the session.
// Every admitted request must come back with valid splits — a reload or
// drain must never drop an in-flight request — and the final drain must
// leave the server idle. A scraper reads the registry throughout, and the
// exposition ends with every request and every reload counted. Run with
// -race this also proves the swap and the scrape-time views are sound.
func TestServeReloadDrainConcurrently(t *testing.T) {
	p := twoPathProblem()
	cfgB := tinyConfig()
	cfgB.Seed = 99
	pathB := saveModel(t, core.New(cfgB), "b.model")
	pathA := saveModel(t, core.New(tinyConfig()), "a.model")

	srv := NewServer(core.New(tinyConfig()), Options{
		MaxConcurrent: 4, MaxQueueDepth: 1024, // roomy queue: nothing sheds pre-drain
		Probe:       p,
		ProbeDemand: demand(p, 4, 2),
	})
	reg := obs.NewRegistry()
	srv.EnableTelemetry(reg)
	scraped := make(chan struct{})
	stopScrape := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var served, shedDraining, dropped int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dec := srv.Serve(p, demand(p, float64(1+w), float64(i%5)))
				mu.Lock()
				switch {
				case dec.Tier == TierShed && errors.Is(dec.Err, ErrDraining):
					shedDraining++
				case dec.Splits == nil:
					dropped++
				default:
					served++
				}
				mu.Unlock()
			}
		}(w)
	}

	// Churn: alternate the two generations while the hammer runs.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for i := 0; i < 10; i++ {
			path := pathB
			if i%2 == 1 {
				path = pathA
			}
			if err := srv.Reload(path); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	<-reloadDone
	wg.Wait()
	close(stopScrape)
	<-scraped

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("%d in-flight requests dropped during reload churn", dropped)
	}
	if served+shedDraining != workers*perWorker {
		t.Fatalf("served %d + drained %d != %d requests", served, shedDraining, workers*perWorker)
	}
	if srv.Generation() != 10 {
		t.Fatalf("generation %d after 10 reloads", srv.Generation())
	}
	if st := srv.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("residual work after drain: %+v", st)
	}
	var requests int64
	for tier := Tier(0); tier < numTiers; tier++ {
		requests += seriesValue(t, reg, MetricServeRequests+`{tier="`+tier.String()+`"}`)
	}
	if requests != workers*perWorker {
		t.Fatalf("exposition counts %d requests, want %d", requests, workers*perWorker)
	}
	if got := seriesValue(t, reg, MetricModelReloads+`{result="ok"}`); got != 10 {
		t.Fatalf("exposition counts %d successful reloads, want 10", got)
	}
}
