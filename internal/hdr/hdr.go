// Package hdr implements an HDR-style log-bucketed latency histogram: the
// recording structure of the open-loop serving tier (DESIGN.md §11). It
// plays the role HdrHistogram plays under wrk2 and Gil Tene's coordinated-
// omission work: constant-time recording into logarithmically spaced
// buckets whose width is a bounded fraction of the recorded value, so the
// full latency *distribution* — not a mean — survives millions of samples
// in a few kilobytes.
//
// Layout. Values are non-negative int64s (the serving tier records
// nanoseconds). Bucket 0 holds one slot per value in [0, 32) — exact unit
// resolution. Every further bucket b covers one power of two,
// [16·2^b, 32·2^b), split into 16 sub-buckets of width 2^b, so a recorded
// value lands in a slot whose width is at most 1/16 of its magnitude and
// the slot midpoint is within ±1/32 (3.125%) of any value it absorbs.
// 32 + 59·16 = 976 slots cover the whole int64 range.
//
// Recording is one atomic add plus two bounded CAS loops (exact min/max
// tracking), so many goroutines record into one histogram without locks
// and without coordinating with readers.
package hdr

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits fixes the resolution: 2^subBucketBits sub-buckets in
	// bucket 0, half that in every exponential bucket.
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits // 32
	subBucketHalf  = subBucketCount / 2 // 16

	// bucketCount is how many exponential buckets follow bucket 0 before
	// int64 runs out of bits.
	bucketCount = 64 - subBucketBits // 59

	// slotCount is the total slot array length.
	slotCount = subBucketCount + bucketCount*subBucketHalf
)

// Histogram is a fixed-size log-bucketed histogram safe for concurrent
// recording. The zero value is NOT ready to use; call New.
type Histogram struct {
	counts [slotCount]atomic.Int64
	total  atomic.Int64
	min    atomic.Int64 // exact smallest recorded value
	max    atomic.Int64 // exact largest recorded value
}

// New returns an empty histogram.
func New() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// slotFor maps a non-negative value to its slot index.
func slotFor(v int64) int {
	if v < subBucketCount {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - subBucketBits // ≥ 1
	sub := int(v>>uint(b)) - subBucketHalf     // ∈ [0, subBucketHalf)
	return subBucketCount + (b-1)*subBucketHalf + sub
}

// slotBounds returns the [lower, upper) value range of a slot.
func slotBounds(idx int) (lower, upper int64) {
	if idx < subBucketCount {
		return int64(idx), int64(idx) + 1
	}
	b := (idx-subBucketCount)/subBucketHalf + 1
	sub := int64((idx-subBucketCount)%subBucketHalf + subBucketHalf)
	return sub << uint(b), (sub + 1) << uint(b)
}

// slotMid returns the representative (midpoint) value of a slot.
func slotMid(idx int) int64 {
	lower, upper := slotBounds(idx)
	return lower + (upper-lower)/2
}

// Record adds one observation. Negative values clamp to 0.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[slotFor(v)].Add(1)
	h.total.Add(1)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// RecordDuration records a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Min returns the exact smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the exact largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns the value at quantile q ∈ [0, 1] by the nearest-rank
// rule: the representative value of the slot holding the ⌈q·count⌉-th
// smallest observation, clamped into [Min, Max] so boundary quantiles
// (q=0, q=1) and single-value histograms are exact. Within the clamp the
// result is within 1/32 (the midpoint of a slot whose width is ≤ 1/16 of
// its lower bound) of the true ranked observation. An empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < slotCount; i++ {
		if c := h.counts[i].Load(); c > 0 {
			cum += c
			if cum >= rank {
				return h.clamp(slotMid(i))
			}
		}
	}
	return h.Max() // concurrent recording moved the total; max is safe
}

func (h *Histogram) clamp(v int64) int64 {
	if min := h.min.Load(); v < min {
		return min
	}
	if max := h.max.Load(); v > max {
		return max
	}
	return v
}

// Reset empties the histogram.
func (h *Histogram) Reset() {
	for i := 0; i < slotCount; i++ {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}
