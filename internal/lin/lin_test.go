package lin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func almostEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	return d <= eps || d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// naiveDot is the straight-line reference the unrolled kernels are
// checked against.
func naiveDot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func TestDotMatchesNaiveAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 33; n++ {
		x, y := randVec(rng, n), randVec(rng, n)
		got, want := Dot(x, y), naiveDot(x, y)
		if !almostEq(got, want, tol) {
			t.Errorf("Dot(n=%d) = %v, want %v", n, got, want)
		}
	}
}

func TestAxpyMatchesNaiveAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 33; n++ {
		x, y := randVec(rng, n), randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + 0.7*x[i]
		}
		Axpy(0.7, x, y)
		for i := range y {
			if !almostEq(y[i], want[i], tol) {
				t.Fatalf("Axpy(n=%d)[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMat(5, 7)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	x := randVec(rng, 7)
	y := make([]float64, 5)
	Gemv(y, a, x)
	for i := 0; i < 5; i++ {
		if want := naiveDot(a.Row(i), x); !almostEq(y[i], want, tol) {
			t.Errorf("Gemv[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestMatRowLayout(t *testing.T) {
	m := NewMat(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, float64(i*10+j))
		}
	}
	if m.At(2, 3) != 23 || m.Data[2*4+3] != 23 {
		t.Errorf("At/Set disagree with flat layout: %v", m.Data)
	}
	row := m.Row(1)
	if len(row) != 4 || row[0] != 10 || row[3] != 13 {
		t.Errorf("Row(1) = %v", row)
	}
	// Row slices are capacity-clipped: appends must not spill into row 2.
	if cap(row) != 4 {
		t.Errorf("Row cap = %d, want 4", cap(row))
	}
}

// TestSyrLowerTriangleOnly: Syr must produce the exact lower triangle of
// α·x·xᵀ and leave the strict upper triangle untouched.
func TestSyrLowerTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 6
	x := randVec(rng, n)
	a := NewMat(n, n)
	sentinel := 99.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, sentinel)
		}
	}
	Syr(a, 1.5, x)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > i {
				if a.At(i, j) != sentinel {
					t.Errorf("upper (%d,%d) touched: %v", i, j, a.At(i, j))
				}
			} else if want := 1.5 * x[i] * x[j]; !almostEq(a.At(i, j), want, tol) {
				t.Errorf("lower (%d,%d) = %v, want %v", i, j, a.At(i, j), want)
			}
		}
	}
}

func TestSyrkMatchesExplicitProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMat(9, 4) // 9 rank-1 updates of a 4×4 accumulator
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	c := NewMat(4, 4)
	Syrk(c, a)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			want := 0.0
			for r := 0; r < 9; r++ {
				want += a.At(r, i) * a.At(r, j)
			}
			if !almostEq(c.At(i, j), want, 1e-9) {
				t.Errorf("Syrk (%d,%d) = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

// randSPD builds a well-conditioned SPD system: MᵀM + d·I with d > 0,
// stored in the lower triangle only (the CholeskySolve input contract).
func randSPD(rng *rand.Rand, n int) (*Mat, []float64) {
	m := NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	a := NewMat(n, n)
	Syrk(a, m)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 0.5 + rng.Float64()
	}
	return a, randVec(rng, n)
}

// mirrorLower fills the strict upper triangle from the lower so the
// residual check can multiply with the full matrix.
func mirrorLower(a *Mat) {
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, a.At(j, i))
		}
	}
}

func TestCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 1; n <= 12; n++ {
		a, b := randSPD(rng, n)
		full := NewMat(n, n)
		copy(full.Data, a.Data)
		mirrorLower(full)
		x := make([]float64, n)
		if !CholeskySolve(a, b, x) {
			t.Fatalf("n=%d: SPD system rejected", n)
		}
		ax := make([]float64, n)
		Gemv(ax, full, x)
		for i := range ax {
			if !almostEq(ax[i], b[i], 1e-8) {
				t.Errorf("n=%d residual at %d: A·x=%v want %v", n, i, ax[i], b[i])
			}
		}
	}
}

func TestCholeskySolveAliasedRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randSPD(rng, 5)
	aCopy := NewMat(5, 5)
	copy(aCopy.Data, a.Data)
	want := make([]float64, 5)
	if !CholeskySolve(aCopy, b, want) {
		t.Fatal("reference solve failed")
	}
	// Solve again with x aliasing b.
	x := append([]float64(nil), b...)
	if !CholeskySolve(a, x, x) {
		t.Fatal("aliased solve failed")
	}
	for i := range x {
		if !almostEq(x[i], want[i], tol) {
			t.Errorf("aliased x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCholeskySolveRejectsIndefinite(t *testing.T) {
	// Diagonal with a negative entry: not positive definite.
	a := NewMat(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if CholeskySolve(a, []float64{1, 1}, make([]float64, 2)) {
		t.Error("indefinite system accepted")
	}
	// Singular (rank-deficient) system.
	s := NewMat(2, 2)
	Syr(s, 1, []float64{1, 1}) // [1 1; 1 1], rank 1
	if CholeskySolve(s, []float64{1, 1}, make([]float64, 2)) {
		t.Error("singular system accepted")
	}
}

// TestCholeskyPropertyRandomSPD is the quick.Check form: any
// well-conditioned SPD system must solve with a small residual.
func TestCholeskyPropertyRandomSPD(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz)%8 + 1
		a, b := randSPD(rng, n)
		full := NewMat(n, n)
		copy(full.Data, a.Data)
		mirrorLower(full)
		x := make([]float64, n)
		if !CholeskySolve(a, b, x) {
			return false
		}
		ax := make([]float64, n)
		Gemv(ax, full, x)
		for i := range ax {
			if !almostEq(ax[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScratchReuseAndZeroing(t *testing.T) {
	s := GetScratch()
	m := s.MatN(4)
	for i := range m.Data {
		m.Data[i] = 1
	}
	// Same scratch, same size: must come back zeroed without allocating.
	m2 := s.MatN(4)
	for _, x := range m2.Data {
		if x != 0 {
			t.Fatal("MatN not zeroed on reuse")
		}
	}
	if m2.Rows != 4 || m2.Cols != 4 {
		t.Fatalf("scratch shape: %dx%d", m2.Rows, m2.Cols)
	}
	// Shrinking reuses the grown backing.
	before := cap(s.mat.Data)
	_ = s.MatN(2)
	if cap(s.mat.Data) != before {
		t.Error("MatN shrank the backing array")
	}
	PutScratch(s)
}

func TestScratchSteadyStateAllocs(t *testing.T) {
	s := GetScratch()
	defer PutScratch(s)
	_ = s.MatN(8)
	allocs := testing.AllocsPerRun(100, func() {
		m := s.MatN(8)
		m.Data[0] = 1
	})
	if allocs != 0 {
		t.Errorf("scratch steady state allocates %.1f/op, want 0", allocs)
	}
}

// FuzzNormalEq checks the fused row kernel against the per-entry pair it
// replaces, Syr(a, 1, y) then Axpy(b, y, x), bit for bit, from a non-zero
// starting a and x. The seed corpus covers ranks 1, 4, 8 and 13 (below,
// at and above the 4-way unroll) and rows of degree 0, 1 and 37.
func FuzzNormalEq(f *testing.F) {
	for _, rank := range []uint8{1, 4, 8, 13} {
		for _, degree := range []uint8{0, 1, 37} {
			f.Add(rank, degree, int64(rank)*100+int64(degree))
		}
	}
	f.Fuzz(func(t *testing.T, rankRaw, degreeRaw uint8, seed int64) {
		rank, degree := int(rankRaw)%16+1, int(degreeRaw)%64
		rng := rand.New(rand.NewSource(seed))
		// Values spread over ±2^20 so cancellation and rounding both occur.
		val := func() float64 { return rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20) }
		other := NewMat(rank+rng.Intn(8), rank)
		for i := range other.Data {
			other.Data[i] = val()
		}
		cols, vals := make([]int32, degree), make([]float64, degree)
		for k := range cols {
			cols[k], vals[k] = int32(rng.Intn(other.Rows)), val()
		}
		got, want := NewMat(rank, rank), NewMat(rank, rank)
		for i := range got.Data {
			got.Data[i] = val()
		}
		copy(want.Data, got.Data)
		gotX, wantX := make([]float64, rank), make([]float64, rank)
		for i := range gotX {
			gotX[i] = val()
		}
		copy(wantX, gotX)

		NormalEq(got, gotX, other, cols, vals)
		for k, c := range cols {
			y := other.Row(int(c))
			Syr(want, 1, y)
			Axpy(vals[k], y, wantX)
		}
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rank %d degree %d: a[%d] = %v, Syr reference %v", rank, degree, i, got.Data[i], want.Data[i])
			}
		}
		for i := range gotX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("rank %d degree %d: x[%d] = %v, Axpy reference %v", rank, degree, i, gotX[i], wantX[i])
			}
		}
	})
}
