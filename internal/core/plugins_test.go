package core

import (
	"errors"
	"strings"
	"testing"
)

func TestFailureLogger(t *testing.T) {
	fl := &FailureLogger{}
	fl.AfterIteration(IterationEvent{Suite: "s", Benchmark: "b", Index: 3, Err: errors.New("boom")})
	fl.AfterIteration(IterationEvent{Suite: "s", Benchmark: "b", Index: 4}) // no error
	fails := fl.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0], "boom") {
		t.Errorf("failures = %v", fails)
	}
}
