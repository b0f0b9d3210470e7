package fleet_test

import (
	"fmt"

	"harpte/internal/core"
	"harpte/internal/fleet"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

// Example puts two guarded servers of one HARP model behind the fleet
// dispatcher and serves Abilene twice: healthy, then with one link failed.
// The tunnels stay the healthy graph's, as a controller keeps them until
// the next recomputation; the model answers both at full depth without
// retraining, and round-robin dispatch sends the two requests to
// different replicas.
func Example() {
	model := core.New(core.DefaultConfig())
	replicas := []fleet.Replica{
		fleet.Local{S: resilience.NewServer(model, resilience.Options{})},
		fleet.Local{S: resilience.NewServer(model, resilience.Options{})},
	}
	f := fleet.New(replicas, fleet.Options{})
	defer f.Close()

	g := topology.Abilene()
	set := tunnels.Compute(g, 4)
	tm := traffic.Series(g, 1, traffic.DefaultSeriesConfig(100), 1)[0]
	demand := traffic.DemandVector(tm, set.Flows)

	for _, p := range []*te.Problem{te.NewProblem(g, set), te.NewProblem(g.WithFailedLink(0, 1), set)} {
		dec := f.Serve(p, demand)
		fmt.Printf("replica %d, tier full: %v, rows sum to 1: %v\n",
			dec.Replica, dec.Tier == resilience.TierFull, verify.CheckSplits(p, dec.Splits, verify.DefaultTol) == nil)
	}
	st := f.Stats()
	fmt.Printf("served %d, fallbacks %d\n", st.Served, st.LocalFallbacks)
	// Output:
	// replica 0, tier full: true, rows sum to 1: true
	// replica 1, tier full: true, rows sum to 1: true
	// served 2, fallbacks 0
}
