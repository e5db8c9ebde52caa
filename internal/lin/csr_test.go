package lin

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNewCSRBasic(t *testing.T) {
	// 4 rows; row 2 empty.
	src := []int32{0, 0, 1, 3, 3, 3}
	dst := []int32{1, 2, 0, 0, 1, 2}
	val := []float64{10, 20, 30, 40, 50, 60}
	c := NewCSR(4, src, dst, val)
	if c.NumRows() != 4 || c.NumEdges() != 6 {
		t.Fatalf("rows=%d edges=%d", c.NumRows(), c.NumEdges())
	}
	if got := c.RowCols(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("row 0 cols = %v", got)
	}
	if got := c.RowVals(0); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Errorf("row 0 vals = %v", got)
	}
	if got := c.RowCols(2); len(got) != 0 {
		t.Errorf("row 2 should be empty, got %v", got)
	}
	if len(c.RowCols(3)) != 3 {
		t.Errorf("row 3 has %d entries, want 3", len(c.RowCols(3)))
	}
}

func TestNewCSRUnweighted(t *testing.T) {
	c := NewCSR(2, []int32{1, 0}, []int32{0, 1}, nil)
	if c.Val != nil {
		t.Error("unweighted CSR allocated values")
	}
	if got := c.RowCols(1); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("row 1 = %v", got)
	}
}

// TestNewCSRStable: entries within a row must keep input order, so
// float accumulations over rows are deterministic.
func TestNewCSRStable(t *testing.T) {
	src := []int32{1, 1, 1, 1}
	dst := []int32{3, 1, 2, 0}
	c := NewCSR(2, src, dst, nil)
	if got := c.RowCols(1); !reflect.DeepEqual(got, []int32{3, 1, 2, 0}) {
		t.Errorf("row order not stable: %v", got)
	}
}

// TestNewCSRRandomRoundTrip: every input edge appears exactly once in
// its source's row, in input order.
func TestNewCSRRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, edges = 37, 500
	src := make([]int32, edges)
	dst := make([]int32, edges)
	val := make([]float64, edges)
	perRow := make([][]int, rows)
	for k := range src {
		s := int32(rng.Intn(rows))
		src[k] = s
		dst[k] = int32(rng.Intn(rows))
		val[k] = rng.Float64()
		perRow[s] = append(perRow[s], k)
	}
	c := NewCSR(rows, src, dst, val)
	for r := 0; r < rows; r++ {
		cols, vals := c.RowCols(r), c.RowVals(r)
		if len(cols) != len(perRow[r]) {
			t.Fatalf("row %d has %d entries, want %d", r, len(cols), len(perRow[r]))
		}
		for i, k := range perRow[r] {
			if cols[i] != dst[k] || vals[i] != val[k] {
				t.Fatalf("row %d entry %d = (%d,%v), want (%d,%v)",
					r, i, cols[i], vals[i], dst[k], val[k])
			}
		}
	}
}

func TestNewCSREmpty(t *testing.T) {
	c := NewCSR(0, nil, nil, nil)
	if c.NumRows() != 0 || c.NumEdges() != 0 {
		t.Errorf("empty CSR: rows=%d edges=%d", c.NumRows(), c.NumEdges())
	}
}
