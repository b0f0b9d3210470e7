package fleet

// Topology-cluster sharding tests: a sharded fleet must route every
// request for a topology to one stable owner, spread distinct topologies
// across replicas, fail a quarantined owner's traffic over to the
// next-ranked replica (and only that owner's traffic), and snap back when
// the owner is re-admitted.

import (
	"fmt"
	"testing"
	"time"

	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// shardProblem builds a distinct 4-node topology per seed (capacities
// differ, so fingerprints differ).
func shardProblem(seed int) *te.Problem {
	g := topology.New(fmt.Sprintf("shard-%d", seed), 4)
	g.AddBidirectional(0, 1, float64(10+seed))
	g.AddBidirectional(1, 2, float64(20+seed))
	g.AddBidirectional(2, 3, 10)
	g.AddBidirectional(0, 3, 5)
	g.EdgeNodes = []int{0, 3}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func TestShardByTopologyStableOwnership(t *testing.T) {
	const topos = 8
	_, rs := fakes(3)
	f := New(rs, Options{ShardByTopology: true, Deadline: time.Second})
	defer f.Close()

	owners := make(map[int]int) // topo seed -> replica id
	for seed := 0; seed < topos; seed++ {
		p := shardProblem(seed)
		d := demand(p, 4, 2, 1, 3)
		for i := 0; i < 5; i++ {
			dec := f.Serve(p, d)
			if dec.Err != nil {
				t.Fatalf("topo %d request %d: %v", seed, i, dec.Err)
			}
			if own, seen := owners[seed]; seen && own != dec.Replica {
				t.Fatalf("topo %d moved from replica %d to %d with a healthy fleet",
					seed, own, dec.Replica)
			}
			owners[seed] = dec.Replica
		}
	}
	distinct := make(map[int]bool)
	for _, r := range owners {
		distinct[r] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d topologies landed on one replica: owners %v", topos, owners)
	}
}

// TestShardRebalancesOnQuarantine: quarantining a shard owner moves its
// topology to the next-ranked replica; unrelated topologies keep their
// owners; the moved shard returns when the owner is re-admitted.
func TestShardRebalancesOnQuarantine(t *testing.T) {
	_, rs := fakes(3)
	f := New(rs, Options{ShardByTopology: true, Deadline: time.Second})
	defer f.Close()

	// Find two topologies with different owners.
	var pA, pB *te.Problem
	ownerA, ownerB := -1, -1
	for seed := 0; seed < 64 && pB == nil; seed++ {
		p := shardProblem(seed)
		dec := f.Serve(p, demand(p, 4, 2, 1, 3))
		if dec.Err != nil {
			t.Fatal(dec.Err)
		}
		switch {
		case pA == nil:
			pA, ownerA = p, dec.Replica
		case dec.Replica != ownerA:
			pB, ownerB = p, dec.Replica
		}
	}
	if pB == nil {
		t.Fatal("no pair of topologies with distinct owners in 64 seeds")
	}

	f.quarantineNow(f.replicas[ownerA])
	decA := f.Serve(pA, demand(pA, 4, 2, 1, 3))
	if decA.Err != nil {
		t.Fatalf("quarantined owner's shard failed over with error: %v", decA.Err)
	}
	if decA.Replica == ownerA {
		t.Fatalf("quarantined replica %d still serving its shard", ownerA)
	}
	moved := decA.Replica
	if dec := f.Serve(pA, demand(pA, 4, 2, 1, 3)); dec.Replica != moved {
		t.Fatalf("failed-over shard unstable: replica %d then %d", moved, dec.Replica)
	}
	if dec := f.Serve(pB, demand(pB, 4, 2, 1, 3)); dec.Replica != ownerB {
		t.Fatalf("unrelated shard moved from %d to %d when replica %d was quarantined",
			ownerB, dec.Replica, ownerA)
	}

	// Re-admit via probation (consecutive vetted successes) and verify the
	// shard snaps back.
	for i := 0; i < f.opts.probationSuccesses; i++ {
		f.onSuccess(f.replicas[ownerA])
	}
	if dec := f.Serve(pA, demand(pA, 4, 2, 1, 3)); dec.Replica != ownerA {
		t.Fatalf("re-admitted owner %d did not get its shard back (replica %d)",
			ownerA, dec.Replica)
	}
}
