package main

import (
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into the program and
// counters read at the same boundaries. Spans and counters are kept only
// when on; request latencies are kept always.
type tracer struct {
	on       bool
	origin   time.Time
	spans    []span
	open     []int           // indices of the spans still open, innermost last
	requests []time.Duration // wall time of every served request
	counters map[string]float64
}

// span is one timed call. parent indexes the span that was open when it
// began (-1 for none).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), counters: make(map[string]float64)}
}

// spanRef closes the span begin opened; the zero value is a no-op.
type spanRef struct {
	tr *tracer
	i  int
}

func (t *tracer) begin(name string) spanRef {
	if !t.on {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
	t.open = append(t.open, len(t.spans)-1)
	return spanRef{tr: t, i: len(t.spans) - 1}
}

func (r spanRef) end() {
	if r.tr == nil {
		return
	}
	r.tr.spans[r.i].end = time.Since(r.tr.origin)
	r.tr.open = r.tr.open[:len(r.tr.open)-1]
}

func (t *tracer) add(name string, v float64) {
	if t.on {
		t.counters[name] += v
	}
}

// spanTotals is the summed duration and self time (duration minus the part
// covered by child spans) of the spans with one name.
type spanTotals struct {
	count       int
	total, self time.Duration
}

// totals folds the recorded spans by name.
func (t *tracer) totals() map[string]spanTotals {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
		out[s.name] = st
	}
	return out
}

// spanDurations lists, in recording order, the durations of the spans
// named name.
func (t *tracer) spanDurations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
