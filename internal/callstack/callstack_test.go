package callstack

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"perfvar/internal/trace"
)

// fig1Trace reproduces the paper's Figure 1: foo enters at t=0, calls bar
// from t=2 to t=4, and leaves at t=6. Inclusive time of foo is 6,
// exclusive time is 4.
func fig1Trace() (*trace.Trace, trace.RegionID, trace.RegionID) {
	tr := trace.New("fig1", 1)
	foo := tr.AddRegion("foo", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("bar", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, foo))
	tr.Append(0, trace.Enter(2, bar))
	tr.Append(0, trace.Leave(4, bar))
	tr.Append(0, trace.Leave(6, foo))
	return tr, foo, bar
}

func TestFig1InclusiveExclusive(t *testing.T) {
	tr, foo, bar := fig1Trace()
	invs, err := Replay(&tr.Procs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 {
		t.Fatalf("got %d invocations, want 2", len(invs))
	}
	fooInv, barInv := invs[0], invs[1]
	if fooInv.Region != foo || barInv.Region != bar {
		t.Fatalf("region order: %+v", invs)
	}
	if got := fooInv.Inclusive(); got != 6 {
		t.Errorf("foo inclusive = %d, want 6 (paper Fig. 1)", got)
	}
	if got := fooInv.Exclusive(); got != 4 {
		t.Errorf("foo exclusive = %d, want 4 (paper Fig. 1)", got)
	}
	if got := barInv.Inclusive(); got != 2 {
		t.Errorf("bar inclusive = %d, want 2", got)
	}
	if got := barInv.Exclusive(); got != 2 {
		t.Errorf("bar exclusive = %d, want 2", got)
	}
	if barInv.Parent != 0 || fooInv.Parent != NoParent {
		t.Errorf("parent links: foo=%d bar=%d", fooInv.Parent, barInv.Parent)
	}
	if fooInv.Depth != 0 || barInv.Depth != 1 {
		t.Errorf("depths: foo=%d bar=%d", fooInv.Depth, barInv.Depth)
	}
}

func TestReplayErrors(t *testing.T) {
	tr := trace.New("bad", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)

	t.Run("leave without enter", func(t *testing.T) {
		pt := trace.ProcessTrace{Events: []trace.Event{trace.Leave(1, f)}}
		if _, err := Replay(&pt); err == nil {
			t.Fatal("no error")
		}
	})
	t.Run("mismatched leave", func(t *testing.T) {
		pt := trace.ProcessTrace{Events: []trace.Event{trace.Enter(0, f), trace.Leave(1, g)}}
		if _, err := Replay(&pt); err == nil {
			t.Fatal("no error")
		}
	})
	t.Run("unclosed", func(t *testing.T) {
		pt := trace.ProcessTrace{Events: []trace.Event{trace.Enter(0, f)}}
		if _, err := Replay(&pt); err == nil {
			t.Fatal("no error")
		}
	})
	t.Run("leave before enter", func(t *testing.T) {
		pt := trace.ProcessTrace{Events: []trace.Event{
			{Time: 5, Kind: trace.KindEnter, Region: f},
			{Time: 3, Kind: trace.KindLeave, Region: f},
		}}
		if _, err := Replay(&pt); err == nil {
			t.Fatal("no error")
		}
	})
}

func TestRecursionFlag(t *testing.T) {
	tr := trace.New("rec", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)
	// f(0..10){ g(1..9){ f(2..8) } }
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Enter(1, g))
	tr.Append(0, trace.Enter(2, f))
	tr.Append(0, trace.Leave(8, f))
	tr.Append(0, trace.Leave(9, g))
	tr.Append(0, trace.Leave(10, f))
	invs, err := Replay(&tr.Procs[0])
	if err != nil {
		t.Fatal(err)
	}
	if invs[0].Recursive || invs[1].Recursive || !invs[2].Recursive {
		t.Fatalf("recursion flags: %v %v %v", invs[0].Recursive, invs[1].Recursive, invs[2].Recursive)
	}
	p, err := ProfileOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	// f: outer 10 counted, inner 6 skipped (recursive).
	if got := p.Regions[f].SumInclusive; got != 10 {
		t.Errorf("f SumInclusive = %d, want 10", got)
	}
	if got := p.Regions[f].Count; got != 2 {
		t.Errorf("f Count = %d, want 2", got)
	}
	// f exclusive: outer 10-8=2, inner 6; g exclusive: 8-6=2.
	if got := p.Regions[f].SumExclusive; got != 8 {
		t.Errorf("f SumExclusive = %d, want 8", got)
	}
	if got := p.Regions[g].SumExclusive; got != 2 {
		t.Errorf("g SumExclusive = %d, want 2", got)
	}
}

func TestBuildProfile(t *testing.T) {
	tr := trace.New("p", 2)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)
	unused := tr.AddRegion("unused", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < 2; rank++ {
		tr.Append(rank, trace.Enter(0, f))
		tr.Append(rank, trace.Enter(1, g))
		tr.Append(rank, trace.Leave(3, g))
		tr.Append(rank, trace.Leave(10, f))
	}
	p, err := ProfileOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Regions[f].Count != 2 || p.Regions[f].SumInclusive != 20 || p.Regions[f].SumExclusive != 16 {
		t.Fatalf("f profile: %+v", p.Regions[f])
	}
	if p.Regions[g].Count != 2 || p.Regions[g].SumInclusive != 4 || p.Regions[g].Ranks != 2 {
		t.Fatalf("g profile: %+v", p.Regions[g])
	}
	if p.Regions[g].MinInclusive != 2 || p.Regions[g].MaxInclusive != 2 {
		t.Fatalf("g min/max: %+v", p.Regions[g])
	}
	if p.Regions[unused].Count != 0 || p.Regions[unused].MinInclusive != 0 {
		t.Fatalf("unused profile: %+v", p.Regions[unused])
	}
	if p.TotalTime != 20 {
		t.Fatalf("TotalTime = %d, want 20", p.TotalTime)
	}
}

// buildRandomNested generates a random properly nested stream and returns
// the trace; used by the invariants property test.
func buildRandomNested(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("rnd", 1)
	var regs []trace.RegionID
	for i := 0; i < 1+rng.Intn(6); i++ {
		regs = append(regs, b.Region(string(rune('a'+i)), trace.ParadigmUser, trace.RoleFunction))
	}
	now := trace.Time(0)
	var stack []trace.RegionID
	for step := 0; step < 10+rng.Intn(100); step++ {
		now += trace.Time(1 + rng.Intn(50))
		if rng.Intn(2) == 0 || len(stack) == 0 {
			r := regs[rng.Intn(len(regs))]
			b.Enter(0, now, r)
			stack = append(stack, r)
		} else {
			b.Leave(0, now, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}
	for len(stack) > 0 {
		now += trace.Time(1 + rng.Intn(50))
		b.Leave(0, now, stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	return b.Trace()
}

// Property: for every invocation, 0 ≤ exclusive ≤ inclusive, children are
// contained in their parents, and the sum of top-level inclusive times
// equals the sum of all exclusive times.
func TestReplayInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := buildRandomNested(seed)
		invs, err := Replay(&tr.Procs[0])
		if err != nil {
			return false
		}
		var topIncl, allExcl trace.Duration
		for i := range invs {
			inv := &invs[i]
			if inv.Exclusive() < 0 || inv.Exclusive() > inv.Inclusive() {
				return false
			}
			if inv.Parent == NoParent {
				topIncl += inv.Inclusive()
			} else {
				par := &invs[inv.Parent]
				if inv.Enter < par.Enter || inv.Leave > par.Leave {
					return false
				}
				if inv.Depth != par.Depth+1 {
					return false
				}
			}
			allExcl += inv.Exclusive()
		}
		return topIncl == allExcl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayAllPropagatesError(t *testing.T) {
	tr := trace.New("bad", 2)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Leave(1, f))
	tr.Append(1, trace.Enter(0, f)) // unclosed
	if _, err := ReplayAll(tr); err == nil {
		t.Fatal("no error for unclosed rank 1")
	}
}

func TestProfileOfBrokenTrace(t *testing.T) {
	tr := trace.New("broken", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	if _, err := ProfileOf(tr); err == nil {
		t.Fatal("broken trace profiled")
	}
}

// TestReplayDepthLimit is the regression test for the int16 depth field:
// a synthetic stack one deeper than MaxDepth must yield a typed
// *LimitError instead of a silently wrapped (negative) depth.
func TestReplayDepthLimit(t *testing.T) {
	tr := trace.New("deep", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	depth := MaxDepth + 2 // one level beyond the last representable depth
	for i := 0; i < depth; i++ {
		tr.Append(0, trace.Enter(int64(i), f))
	}
	for i := 0; i < depth; i++ {
		tr.Append(0, trace.Leave(int64(depth+i), f))
	}
	_, err := Replay(&tr.Procs[0])
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("Replay error = %v, want *LimitError", err)
	}
	if le.What != "call-stack depth" || le.Limit != MaxDepth || le.Rank != 0 {
		t.Fatalf("LimitError = %+v", le)
	}
}

// TestReplayAtDepthLimit asserts the guard is not off by one: exactly
// MaxDepth+1 nested invocations (depths 0..MaxDepth) still replay.
func TestReplayAtDepthLimit(t *testing.T) {
	tr := trace.New("deep-ok", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	depth := MaxDepth + 1
	for i := 0; i < depth; i++ {
		tr.Append(0, trace.Enter(int64(i), f))
	}
	for i := 0; i < depth; i++ {
		tr.Append(0, trace.Leave(int64(depth+i), f))
	}
	invs, err := Replay(&tr.Procs[0])
	if err != nil {
		t.Fatalf("Replay at the limit: %v", err)
	}
	if got := invs[len(invs)-1].Depth; got != MaxDepth {
		t.Fatalf("deepest depth = %d, want %d", got, MaxDepth)
	}
}
