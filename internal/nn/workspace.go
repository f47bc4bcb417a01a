package nn

import "repro/internal/tensor"

// heapWS backs the plain Forward/Backward paths: it draws from the shared
// default pool, so op outputs handed to callers keep allocate-per-call
// semantics (they are never returned to the pool), while internal scratch
// (bordered images, data-gradient panels, batch-norm temporaries) — which
// the ops do release — still gets recycled across calls. Scratch-aware executors pass their own
// per-rank workspace instead (see graph.ScratchOp).
var heapWS = tensor.NewWorkspace(nil)

// ReleaseCaches implements graph.CachedOp: drops the argmax index map.
func (m *MaxPool2D) ReleaseCaches() { m.idx = nil }

// ReleaseCaches implements graph.CachedOp: drops the saved batch
// statistics (running statistics are model state and are kept).
func (b *BatchNorm) ReleaseCaches() {
	b.savedMean, b.savedVar, b.savedValid = nil, nil, false
}

// ReleaseCaches implements graph.CachedOp: drops the dropout mask.
func (d *Dropout) ReleaseCaches() { d.mask = nil }
