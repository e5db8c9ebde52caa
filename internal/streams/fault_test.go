package streams

import (
	"errors"
	"testing"

	"renaissance/internal/forkjoin"
)

func TestParMapEPanicSurfacesTaskError(t *testing.T) {
	xs := make([]int, 200)
	for i := range xs {
		xs[i] = i
	}
	got, err := ParMapE(xs, 4, func(x int) int {
		if x == 123 {
			panic("map failure")
		}
		return x * x
	})
	var te *forkjoin.TaskError
	if !errors.As(err, &te) || te.Value != "map failure" {
		t.Fatalf("ParMapE error = %v, want TaskError(map failure)", err)
	}
	if got != nil {
		t.Errorf("ParMapE returned data alongside an error")
	}

	clean, err := ParMapE(xs, 4, func(x int) int { return x + 1 })
	if err != nil || len(clean) != len(xs) || clean[10] != 11 {
		t.Errorf("clean ParMapE = (%d elems, %v)", len(clean), err)
	}
}
