// Package pca implements principal component analysis as used in the
// paper's diversity study (§4.2): metric vectors are standardized to zero
// mean and unit variance, the correlation structure is decomposed with a
// symmetric Jacobi eigensolver, and the benchmarks are projected onto the
// principal components (scores) while the metric weights form the loadings
// of Table 3.
package pca

import (
	"errors"
	"math"
	"sort"
)

// ErrBadShape is returned when the input matrix is empty or ragged.
var ErrBadShape = errors.New("pca: input matrix must be non-empty and rectangular")

// Result holds the outcome of a PCA.
type Result struct {
	// Loadings[j][k] is the loading of variable j on principal component k
	// (the eigenvector matrix L of the paper's S = YL).
	Loadings [][]float64
	// Scores[i][k] is the projection of observation i onto component k.
	Scores [][]float64
	// Eigenvalues are the variances of the components, descending.
	Eigenvalues []float64
	// ExplainedVariance[k] is Eigenvalues[k] / sum(Eigenvalues).
	ExplainedVariance []float64
}

// Analyze standardizes the N×K observation matrix X (rows are observations,
// columns are variables) and returns the principal components.
//
// Variables with zero variance carry no information; they are kept in the
// output with zero loadings so that indices line up with the input columns.
func Analyze(x [][]float64) (*Result, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrBadShape
	}
	k := len(x[0])
	if k == 0 {
		return nil, ErrBadShape
	}
	for _, row := range x {
		if len(row) != k {
			return nil, ErrBadShape
		}
	}

	means := make([]float64, k)
	stds := make([]float64, k)
	for j := 0; j < k; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += x[i][j]
		}
		means[j] = sum / float64(n)
	}
	for j := 0; j < k; j++ {
		ss := 0.0
		for i := 0; i < n; i++ {
			d := x[i][j] - means[j]
			ss += d * d
		}
		if n > 1 {
			stds[j] = math.Sqrt(ss / float64(n-1))
		}
	}

	// Standardized matrix Y.
	y := make([][]float64, n)
	for i := range y {
		y[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			if stds[j] > 0 {
				y[i][j] = (x[i][j] - means[j]) / stds[j]
			}
		}
	}

	// Covariance of Y (= correlation matrix of X for non-degenerate
	// columns).
	cov := make([][]float64, k)
	for a := range cov {
		cov[a] = make([]float64, k)
	}
	if n > 1 {
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				s := 0.0
				for i := 0; i < n; i++ {
					s += y[i][a] * y[i][b]
				}
				s /= float64(n - 1)
				cov[a][b] = s
				cov[b][a] = s
			}
		}
	}

	evals, evecs := jacobiEigen(cov)

	// Sort components by descending eigenvalue.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return evals[order[a]] > evals[order[b]] })

	loadings := make([][]float64, k)
	for j := 0; j < k; j++ {
		loadings[j] = make([]float64, k)
		for c := 0; c < k; c++ {
			loadings[j][c] = evecs[j][order[c]]
		}
	}
	sortedVals := make([]float64, k)
	total := 0.0
	for c := 0; c < k; c++ {
		v := evals[order[c]]
		if v < 0 && v > -1e-12 {
			v = 0 // clamp numerical noise
		}
		sortedVals[c] = v
		total += v
	}
	explained := make([]float64, k)
	for c := 0; c < k; c++ {
		if total > 0 {
			explained[c] = sortedVals[c] / total
		}
	}

	// Canonicalize eigenvector signs: make the largest-magnitude loading of
	// each component positive, so results are stable across runs.
	for c := 0; c < k; c++ {
		maxAbs, argmax := 0.0, 0
		for j := 0; j < k; j++ {
			if a := math.Abs(loadings[j][c]); a > maxAbs {
				maxAbs, argmax = a, j
			}
		}
		if loadings[argmax][c] < 0 {
			for j := 0; j < k; j++ {
				loadings[j][c] = -loadings[j][c]
			}
		}
	}

	// Scores S = Y L.
	scores := make([][]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = make([]float64, k)
		for c := 0; c < k; c++ {
			s := 0.0
			for j := 0; j < k; j++ {
				s += y[i][j] * loadings[j][c]
			}
			scores[i][c] = s
		}
	}

	return &Result{
		Loadings:          loadings,
		Scores:            scores,
		Eigenvalues:       sortedVals,
		ExplainedVariance: explained,
	}, nil
}

// jacobiEigen computes all eigenvalues and eigenvectors of the symmetric
// matrix a using the cyclic Jacobi rotation method. It returns the
// eigenvalues and the matrix of column eigenvectors.
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := identity(n)

	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-300 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s, n)
			}
		}
	}

	evals := make([]float64, n)
	for i := 0; i < n; i++ {
		evals[i] = m[i][i]
	}
	return evals, v
}

func identity(n int) [][]float64 {
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	return v
}

// rotate applies the Jacobi rotation J(p,q,θ) to m (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided).
func rotate(m, v [][]float64, p, q int, c, s float64, n int) {
	for i := 0; i < n; i++ {
		mip, miq := m[i][p], m[i][q]
		m[i][p] = c*mip - s*miq
		m[i][q] = s*mip + c*miq
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m[p][j], m[q][j]
		m[p][j] = c*mpj - s*mqj
		m[q][j] = s*mpj + c*mqj
	}
	for i := 0; i < n; i++ {
		vip, viq := v[i][p], v[i][q]
		v[i][p] = c*vip - s*viq
		v[i][q] = s*vip + c*viq
	}
}
