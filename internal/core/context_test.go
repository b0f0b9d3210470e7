package core

// Tests for the Context diet: edge-token rows are derived from clsPos, the
// mean-pool matrix is built on first use, and a serving context for the
// benchmark's KDL problem retains megabytes less.

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"harpte/internal/nn"
	"harpte/internal/tensor"
)

// TestContextTokenLayout pins the identity that replaced the per-tunnel
// edgePos table: tunnel t's CLS token sits at row clsPos[t] and its i-th
// edge token at row clsPos[t]+1+i, inside the tunnel's segment.
func TestContextTokenLayout(t *testing.T) {
	_, c, _ := largeBench(kdlProblem(20, 4, 301), 302)
	ctx := c.inner
	set, numEdges := ctx.p.Tunnels, ctx.p.Graph.NumEdges()
	for tt, cls := range ctx.clsPos {
		tun := set.Tunnel(tt/set.K, tt%set.K)
		if ctx.tokenIdx[cls] != numEdges {
			t.Fatalf("tunnel %d: row %d is not the CLS sentinel", tt, cls)
		}
		if got := ctx.tokenIdx[cls+1 : cls+1+len(tun.Edges)]; !reflect.DeepEqual(got, tun.Edges) {
			t.Fatalf("tunnel %d: edge token rows gather %v, tunnel edges are %v", tt, got, tun.Edges)
		}
		if want := (nn.Segment{Start: cls, End: cls + 1 + len(tun.Edges)}); ctx.segs[tt] != want {
			t.Fatalf("tunnel %d: segment %v, want %v", tt, ctx.segs[tt], want)
		}
	}
}

// TestMeanPoolLazyUnchanged: Context no longer builds the mean-pool matrix;
// the one built on first use equals the eagerly built one entry for entry
// (so the MeanPoolTunnels ablation is unchanged bit for bit), and concurrent
// first use is race-free and agrees with a serial run.
func TestMeanPoolLazyUnchanged(t *testing.T) {
	p := kdlProblem(20, 4, 301)
	cfg := DefaultConfig()
	cfg.MeanPoolTunnels = true
	m := New(cfg)
	_, c, d := largeBench(p, 302)
	if c.inner.avgPool != nil {
		t.Fatal("Context built avgPool eagerly")
	}
	want := m.Splits(m.Context(p), d)

	var wg sync.WaitGroup
	got := make([]*tensor.Dense, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Splits(c, d)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("goroutine %d: concurrent first use differs from a serial run", i)
		}
	}

	var entries []tensor.COO
	pos := 0
	for tt := 0; tt < p.Tunnels.NumTunnels(); tt++ {
		n := len(p.Tunnels.Tunnel(tt/4, tt%4).Edges)
		for i := 1; i <= n; i++ {
			entries = append(entries, tensor.E(tt, pos+i, 1/float64(n)))
		}
		pos += 1 + n
	}
	if eager := tensor.NewCSR(p.Tunnels.NumTunnels(), pos, entries); !reflect.DeepEqual(c.inner.avgPool, eager) {
		t.Fatal("lazily built mean-pool matrix differs from the eager construction")
	}
}

// TestContextRetainedHeap: on the benchmark's KDL problem (2,256 flows,
// 93,670 tokens) a Context used to retain 3.7 MB — 0.9 MB of edgePos and
// 1.4 MB of avgPool no serving path reads; without them it is 1.3 MB.
func TestContextRetainedHeap(t *testing.T) {
	if testing.Short() || tensor.RaceEnabled {
		t.Skip("KDL all-pairs tunnel set-up takes seconds")
	}
	p := benchKDLProblem()
	p.Incidence()
	m := New(DefaultConfig())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := m.Context(p)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(c)
	if retained > 2e6 {
		t.Fatalf("KDL Context retains %.2f MB, want <= 2 MB", retained/1e6)
	}
}
