package lin

// CSR is a compressed-sparse-row adjacency structure over compacted
// int32 row/column indices: row i's entries are Col[RowPtr[i]:RowPtr[i+1]]
// (and, for weighted graphs, the parallel Val range). Three contiguous
// arrays replace the seed kernels' map-of-slices groupings
// (map[int][]Rating, map[int][]int), so a row scan is a sequential walk
// and the whole graph is three allocations built once at workload setup.
type CSR struct {
	RowPtr []int32
	Col    []int32
	Val    []float64 // nil for unweighted graphs
}

// NumRows returns the number of rows.
func (c *CSR) NumRows() int { return len(c.RowPtr) - 1 }

// NumEdges returns the number of stored entries.
func (c *CSR) NumEdges() int { return len(c.Col) }

// RowCols returns row i's column indices.
func (c *CSR) RowCols(i int) []int32 {
	return c.Col[c.RowPtr[i]:c.RowPtr[i+1]]
}

// RowVals returns row i's values; only valid on weighted graphs.
func (c *CSR) RowVals(i int) []float64 {
	return c.Val[c.RowPtr[i]:c.RowPtr[i+1]]
}

// NewCSR builds a CSR with the classic two-pass counting sort: count
// per-row degrees, prefix-sum into RowPtr, then scatter entries. The
// build is stable — entries within a row keep their input order — so
// downstream float accumulations are deterministic. val may be nil for
// an unweighted graph; otherwise it must parallel src/dst.
func NewCSR(rows int, src, dst []int32, val []float64) *CSR {
	rowPtr := make([]int32, rows+1)
	for _, s := range src {
		rowPtr[s+1]++
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int32, len(dst))
	var vals []float64
	if val != nil {
		vals = make([]float64, len(val))
	}
	// next[i] is the write cursor of row i during the scatter pass.
	next := make([]int32, rows)
	copy(next, rowPtr[:rows])
	for k, s := range src {
		at := next[s]
		next[s]++
		col[at] = dst[k]
		if vals != nil {
			vals[at] = val[k]
		}
	}
	return &CSR{RowPtr: rowPtr, Col: col, Val: vals}
}
