package core

import (
	"sync"

	"harpte/internal/autograd"
	"harpte/internal/nn"
)

// This file implements data-parallel training. Replicas share the primary
// model's weight buffers (autograd tensors expose their value storage) but
// own private gradient buffers, so each worker can run forward/backward
// concurrently; the shard gradients are then reduced into the primary and
// a single optimizer step is applied — synchronous data parallelism, the
// same semantics as the serial TrainStep.

// shadow returns a replica whose parameters alias m's values but carry
// fresh gradient buffers. Construction order is deterministic, so params
// align index-by-index.
func (m *Model) shadow() *Model {
	s := &Model{Cfg: m.Cfg}
	s.gnn = m.gnn.CloneShared()
	s.edgeProj = m.edgeProj.CloneShared()
	s.cls = autograd.ShareParam(m.cls)
	s.settrans = m.settrans.CloneShared()
	s.mlp1 = m.mlp1.CloneShared()
	s.rau = m.rau.CloneShared()
	// Same collection order as New, so gradient reduction can pair params
	// positionally across replicas.
	s.params = append(s.params, s.cls)
	s.params = append(s.params, nn.CollectParams(s.gnn, s.edgeProj, s.settrans, s.mlp1, s.rau)...)
	return s
}

// replicas lazily builds and caches n-1 shadow replicas (the primary model
// is the n-th worker).
func (m *Model) replicas(n int) []*Model {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	for len(m.reps) < n-1 {
		m.reps = append(m.reps, m.shadow())
	}
	return m.reps[:n-1]
}

// backpropSharded is TrainStep's forward and backward over a batch shared
// out to 1 < workers <= len(batch) models — m and its replicas — one
// goroutine each. It leaves the batch's mean-loss gradient in m's params,
// the serial one up to floating-point summation order, and returns the
// mean loss.
func (m *Model) backpropSharded(batch []Sample, workers int) float64 {
	models := append([]*Model{m}, m.replicas(workers)...)
	scale := 1 / float64(len(batch))
	losses := make([]float64, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := models[w]
			// One persistent reusable tape per worker model: after the first
			// step, every node and buffer a sample needs comes from the
			// worker's own arena.
			tp := worker.trainingTape()
			for i := w; i < len(batch); i += workers {
				losses[w] += worker.backprop(tp, batch[i], scale)
			}
		}(w)
	}
	wg.Wait()

	// Reduce replica gradients into the primary.
	for _, rep := range models[1:] {
		for i, p := range m.params {
			rg := rep.params[i].Grad
			for j, g := range rg.Data {
				p.Grad.Data[j] += g
			}
			rg.Zero()
		}
	}

	var total float64
	for _, l := range losses {
		total += l
	}
	return total
}
