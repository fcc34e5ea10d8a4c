package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one
// request or ledger round share req; parent is the index of the span
// that caused this one, or -1.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	req        int
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// calls) are merged first, so covered time is never counted twice, and a
// child running past its parent's end only covers up to that end.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Duration }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// selfByName gathers the self times of every span named name, in ms.
func selfByName(spans []span, self []time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i])/float64(time.Millisecond))
	}
	return out
}
