package rbench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"renaissance/internal/stats"
)

// A Span is one timed interval of a traced run. Spans nest run -> phase ->
// round -> op.<bench> (and probes -> probe.<metric>); Parent is 0 for the
// run span. Times are nanoseconds since the run began. Counts holds the
// paper-counter deltas over an op span.
type Span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Run     string           `json:"run"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// DurMS is the span's duration in milliseconds.
func (s Span) DurMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// A tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	run   string
	spans []Span
	open  []int // ids of the spans begun and not yet ended, innermost last
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: t.parent(), Name: name, StartNS: int64(time.Since(t.t0)), Run: t.run})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if t.parent() != id {
		panic(fmt.Sprintf("rbench: span %d ended while span %d is innermost", id, t.parent()))
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add records a finished span from timestamps the caller already took, so
// a sample and its span are the same interval to the nanosecond.
func (t *tracer) add(name string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: t.parent(), Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Run: t.run, Counts: counts,
	})
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ReadSpans reads the JSON lines WriteSpans wrote.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("span %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover, in nanoseconds.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// RoundMSFromSpans recomputes round_ms from a trace alone: the sum, over
// the op names, of the median duration of that op's spans in the measure
// phase. It also returns the per-op medians.
func RoundMSFromSpans(spans []Span) (float64, map[string]float64) {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	durs := map[string][]float64{}
	for _, s := range spans {
		round := byID[s.Parent]
		if strings.HasPrefix(s.Name, "op.") && round.Name == "round" && byID[round.Parent].Name == "measure" {
			durs[s.Name] = append(durs[s.Name], s.DurMS())
		}
	}
	sum, med := 0.0, map[string]float64{}
	for name, d := range durs {
		med[name] = stats.Median(d)
		sum += med[name]
	}
	return sum, med
}

// Explain prints where a traced run's time went: total and self time per
// span name, and round_ms recomputed from the op spans.
func Explain(w io.Writer, spans []Span) {
	type agg struct {
		n           int
		total, self int64
	}
	self := SelfTimes(spans)
	byName := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.EndNS - s.StartNS
		a.self += self[s.ID]
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	fmt.Fprintf(w, "%-36s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-36s %7d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	sum, med := RoundMSFromSpans(spans)
	ops := make([]string, 0, len(med))
	for n := range med {
		ops = append(ops, n)
	}
	sort.Strings(ops)
	fmt.Fprintln(w, "\nmedian traced sample per op (ms):")
	for _, n := range ops {
		fmt.Fprintf(w, "  %-34s %12.3f\n", n, med[n])
	}
	fmt.Fprintf(w, "round_ms from spans (sum of the medians): %.3f\n", sum)
	fmt.Fprintln(w, "self time: a round's is its forced GC and the host canary; measure's is the untraced (even) rounds; tour's is the other ops' set-up")
}
