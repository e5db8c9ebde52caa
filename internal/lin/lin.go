// Package lin is the flat-memory dense numeric kernel layer under the
// data-parallel ML benchmarks (als, movie-lens, log-regression,
// naive-bayes, chi-square, dec-tree, page-rank — the suite's
// "data-parallel, compute-bound" pillar). The seed kernels computed on
// map-keyed, pointer-chasing, allocation-per-iteration structures
// (map[int][]float64 factors, [][]float64 normal equations,
// map-of-slices contingency tables); this package provides the flat
// row-major alternatives the "Arrays in Practice" measurements identify
// as the dominant JVM/array-layout performance factor:
//
//   - Mat: a dense row-major matrix over one contiguous []float64, so a
//     row is a cache-line-sequential slice and the whole matrix is one
//     allocation.
//   - Dot/Axpy/Gemv: 4-way-unrolled level-1/level-2 kernels with the
//     bounds check hoisted out of the unrolled body.
//   - NormalEq: the ALS normal-equation accumulation, one fused pass per
//     CSR row over the lower triangle (half the flops of a full outer
//     product); Syr/Syrk are the same update one vector at a time.
//   - CholeskySolve: an in-place LL^T factor-and-solve for symmetric
//     positive-definite systems. The ALS normal equations
//     (Y^T·Y + λ·n·I with λ·n > 0) are SPD by construction, so Cholesky
//     is branch-free where the seed's pivoted Gaussian elimination
//     branched per column, and needs ~half the flops.
//   - Scratch (scratch.go): pooled per-worker scratch buffers so
//     steady-state solver iterations allocate nothing.
//   - CSR (csr.go): a compressed-sparse-row edge array for the rating
//     and web graphs, built once at workload setup.
//
// The package is dependency-free (standard library only, no metrics);
// callers in internal/rdd own the instrumentation semantics.
package lin

import "math"

// Mat is a dense row-major rows×cols matrix backed by one contiguous
// slice: element (i, j) lives at Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zeroed rows×cols matrix in one allocation.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a full-capacity-clipped slice (appends cannot
// spill into the next row).
func (m *Mat) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// PadStride returns the row width to allocate so that rows of useful
// width w land on disjoint cache lines regardless of the backing
// array's alignment: w rounded up to a 64-byte multiple plus one spacer
// line. Use it for per-worker accumulator matrices written concurrently
// row-per-worker — without it, adjacent narrow rows share cache lines
// and the workers false-share on every write.
func PadStride(w int) int { return (w+7)&^7 + 8 }

// Dot returns Σ x[i]·y[i], 4-way unrolled with independent partial sums
// (breaks the loop-carried add dependency; the partials are combined in
// a fixed order so results are deterministic run to run).
func Dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n] // one bounds check; the unrolled body is check-free
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y[i] += a·x[i] over len(x) elements, 4-way unrolled.
// The per-index updates are independent, so the unrolling does not
// change results.
func Axpy(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// Gemv computes y = A·x (y must have length A.Rows); each row is one
// unrolled Dot over contiguous memory.
func Gemv(y []float64, a *Mat, x []float64) {
	y = y[:a.Rows]
	for i := range y {
		y[i] = Dot(a.Row(i), x)
	}
}

// Syr accumulates the symmetric rank-1 update A += α·x·xᵀ, writing only
// the lower triangle (row i receives columns 0..i). Consumers that need
// the full matrix (CholeskySolve) read only the lower triangle.
func Syr(a *Mat, alpha float64, x []float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		Axpy(alpha*x[i], x[:i+1], a.Data[i*n:i*n+i+1])
	}
}

// NormalEq accumulates one CSR row's normal equations: for each entry
// (cols[k], vals[k]), with y = other.Row(cols[k]), it adds y·yᵀ into a's
// lower triangle and vals[k]·y into x. Each element gets the expression
// and entry order of Syr(a, 1, y) then Axpy(vals[k], y, x), so the result
// is bit-identical to that pair, in one call per row instead of rank+2
// short ones per entry. Entries go four to a pass over the triangle, so
// an element is loaded and stored once per four updates. It never
// allocates.
func NormalEq(a *Mat, x []float64, other *Mat, cols []int32, vals []float64) {
	n := a.Rows
	d := a.Data[:n*n]
	x = x[:n]
	vals = vals[:len(cols)]
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		y0, y1 := other.Row(int(cols[k]))[:n], other.Row(int(cols[k+1]))[:n]
		y2, y3 := other.Row(int(cols[k+2]))[:n], other.Row(int(cols[k+3]))[:n]
		for i := range y0 {
			y0i, y1i, y2i, y3i := y0[i], y1[i], y2[i], y3[i]
			row := d[i*n : i*n+i+1]
			z0, z1, z2, z3 := y0[:len(row)], y1[:len(row)], y2[:len(row)], y3[:len(row)]
			for j := range row {
				s := row[j] + y0i*z0[j]
				s += y1i * z1[j]
				s += y2i * z2[j]
				row[j] = s + y3i*z3[j]
			}
			s := x[i] + vals[k]*y0i
			s += vals[k+1] * y1i
			s += vals[k+2] * y2i
			x[i] = s + vals[k+3]*y3i
		}
	}
	for ; k < len(cols); k++ {
		y, b := other.Row(int(cols[k]))[:n], vals[k]
		for i, yi := range y {
			row := d[i*n : i*n+i+1]
			for j, yj := range y[:len(row)] {
				row[j] += yi * yj
			}
			x[i] += b * yi
		}
	}
}

// Syrk accumulates the symmetric rank-k update C += AᵀA over A's rows,
// writing only C's lower triangle.
func Syrk(c *Mat, a *Mat) {
	for r := 0; r < a.Rows; r++ {
		Syr(c, 1, a.Row(r))
	}
}

// spdTolerance is the pivot floor under which a system is treated as not
// positive definite — the same threshold the seed Gaussian elimination
// used to declare a pivot singular.
const spdTolerance = 1e-12

// CholeskySolve solves a·x = b in place for a symmetric
// positive-definite a, reading and overwriting only a's lower triangle
// (the factor L replaces it). x and b may alias; x must have length
// a.Rows. It reports false — leaving a and x partially overwritten —
// when a is not (numerically) positive definite, the singularity
// contract of the seed's pivoted Gaussian elimination (kept as the test
// oracle solveLinearSystem in internal/rdd). It never allocates.
func CholeskySolve(a *Mat, b, x []float64) bool {
	n := a.Rows
	d := a.Data
	// Factor a = L·Lᵀ in place (row-major Cholesky–Banachiewicz: every
	// inner product is a contiguous unrolled Dot).
	for j := 0; j < n; j++ {
		rowj := d[j*n : j*n+j]
		pivot := d[j*n+j] - Dot(rowj, rowj)
		if pivot < spdTolerance {
			return false
		}
		pivot = math.Sqrt(pivot)
		d[j*n+j] = pivot
		inv := 1 / pivot
		for i := j + 1; i < n; i++ {
			d[i*n+j] = (d[i*n+j] - Dot(d[i*n:i*n+j], rowj)) * inv
		}
	}
	x = x[:n]
	// Forward-substitute L·z = b into x (safe when x aliases b: index i
	// reads b[i] before writing x[i], and x[:i] is already solved).
	for i := 0; i < n; i++ {
		x[i] = (b[i] - Dot(d[i*n:i*n+i], x[:i])) / d[i*n+i]
	}
	// Back-substitute Lᵀ·x = z in place (Lᵀ[i][k] = L[k][i], a strided
	// column walk — n is a model rank here, small enough not to matter).
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= d[k*n+i] * x[k]
		}
		x[i] = s / d[i*n+i]
	}
	return true
}
