package lin

import "sync"

// Scratch is reusable per-worker working memory for the solver hot
// loops: one square matrix, grown on demand and recycled through a
// sync.Pool so steady-state iterations (an ALS normal-equation solve per
// user) allocate nothing.
type Scratch struct {
	mat Mat
}

// scratchRetainCap bounds how much backing memory a recycled Scratch may
// keep (in float64s), so one pathological request cannot pin
// a huge allocation in the pool — the same release discipline the STM
// transaction pool uses for its read/write vectors.
const scratchRetainCap = 1 << 16

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch bundle from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles s, dropping an oversized backing buffer.
func PutScratch(s *Scratch) {
	if cap(s.mat.Data) > scratchRetainCap {
		s.mat.Data = nil
	}
	scratchPool.Put(s)
}

// MatN returns the scratch n×n matrix, zeroed. The backing array is
// grow-only, so repeated calls at the same size never allocate.
func (s *Scratch) MatN(n int) *Mat {
	need := n * n
	if cap(s.mat.Data) < need {
		s.mat.Data = make([]float64, need)
	}
	s.mat.Data = s.mat.Data[:need]
	s.mat.Rows, s.mat.Cols = n, n
	clear(s.mat.Data)
	return &s.mat
}
