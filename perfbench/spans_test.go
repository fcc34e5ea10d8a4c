package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		// Two concurrent children overlapping on [30,40): covered once.
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0},
		// A child inside another child: covers nothing new for root.
		{name: "c", start: 35 * ms, end: 38 * ms, parent: 0},
		// A child running past its parent's end covers only [90,100).
		{name: "d", start: 90 * ms, end: 120 * ms, parent: 0},
		// A grandchild counts against its own parent, not the root.
		{name: "e", start: 12 * ms, end: 20 * ms, parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 22 * ms, 30 * ms, 3 * ms, 30 * ms, 8 * ms}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("round", -1, 7)
	tr.do("layer", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	child := tr.spans[1]
	if child.parent != root || child.req != 7 || child.end < child.start+2*time.Millisecond {
		t.Errorf("child span %+v", child)
	}
	self := selfTimes(tr.spans)
	if got := tr.spans[root].end - tr.spans[root].start - (child.end - child.start); self[root] != got {
		t.Errorf("root self %v, want %v", self[root], got)
	}
	byName := selfByName(tr.spans, self)
	if len(byName["layer"]) != 1 || len(byName["round"]) != 1 {
		t.Errorf("selfByName = %v", byName)
	}
}
