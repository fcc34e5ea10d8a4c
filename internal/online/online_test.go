package online

import (
	"errors"
	"testing"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func fd4Fixture(t *testing.T) (*trace.Trace, workloads.FD4Config, trace.RegionID) {
	t.Helper()
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 24
	cfg.Iterations = 10
	cfg.InterruptRank = 7
	cfg.InterruptIteration = 6
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tr.RegionByName("iteration")
	if !ok {
		t.Fatal("iteration region missing")
	}
	return tr, cfg, r.ID
}

func TestOnlineDetectsInterruption(t *testing.T) {
	tr, cfg, dom := fd4Fixture(t)
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts for interrupted run")
	}
	found := false
	for _, al := range alerts {
		if al.Segment.Rank == trace.Rank(cfg.InterruptRank) && al.Segment.Index == cfg.InterruptIteration {
			found = true
			// The alert fires long before the run ends.
			if al.SeenSegments >= a.SeenSegments() {
				t.Errorf("alert only at the very end: seen %d of %d", al.SeenSegments, a.SeenSegments())
			}
		}
	}
	if !found {
		t.Fatalf("interrupted segment not alerted: %+v", alerts)
	}
	if a.SeenSegments() != cfg.Ranks*cfg.Iterations {
		t.Fatalf("seen %d segments, want %d", a.SeenSegments(), cfg.Ranks*cfg.Iterations)
	}
}

func TestOnlineQuietOnBalancedRun(t *testing.T) {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 16
	cfg.Iterations = 8
	cfg.InterruptRank = 3
	cfg.InterruptDuration = 0 // clean run
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tr.RegionByName("iteration")
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: r.ID}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts on balanced run: %+v", alerts)
	}
}

func TestOnlineMatchesOfflineSegments(t *testing.T) {
	// The streaming state machine must produce exactly the offline
	// segment matrix (same starts, ends, sync times).
	tr, _, dom := fd4Fixture(t)
	m, err := segment.Compute(tr, dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []segment.Segment
	a, err := Config{
		Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom, Options: Options{Warmup: 1 << 30},
		OnSegment: func(seg segment.Segment, _ float64, _, _ bool) { got = append(got, seg) },
	}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, tr.NumRanks())
	for {
		bestRank := -1
		var bestTime trace.Time
		for rank := range tr.Procs {
			if idx[rank] >= len(tr.Procs[rank].Events) {
				continue
			}
			ts := tr.Procs[rank].Events[idx[rank]].Time
			if bestRank < 0 || ts < bestTime {
				bestRank, bestTime = rank, ts
			}
		}
		if bestRank < 0 {
			break
		}
		ev := tr.Procs[bestRank].Events[idx[bestRank]]
		idx[bestRank]++
		if _, err := a.Feed(trace.Rank(bestRank), ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != m.TotalSegments() {
		t.Fatalf("streamed %d segments, offline %d", len(got), m.TotalSegments())
	}
	for _, seg := range got {
		want := m.PerRank[seg.Rank][seg.Index]
		if seg != want {
			t.Fatalf("segment mismatch: streamed %+v offline %+v", seg, want)
		}
	}
}

func TestOnlineAgreesWithOfflineHotspot(t *testing.T) {
	tr, cfg, dom := fd4Fixture(t)
	m, err := segment.Compute(tr, dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := imbalance.Analyze(m, imbalance.Options{})
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The offline top hotspot must be among the online alerts.
	top := off.Hotspots[0].Segment
	found := false
	for _, al := range alerts {
		if al.Segment.Rank == top.Rank && al.Segment.Index == top.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("offline top hotspot (rank %d idx %d) missed online", top.Rank, top.Index)
	}
	_ = cfg
}

func TestOnlineErrors(t *testing.T) {
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	if _, err := (Config{Ranks: 0, Regions: regions}).NewAnalyzer(); err == nil {
		t.Error("nranks=0 accepted")
	}
	if _, err := (Config{Ranks: 2, Regions: regions, Dominant: 5}).NewAnalyzer(); err == nil {
		t.Error("undefined dominant accepted")
	}
	a, err := Config{Ranks: 1, Regions: regions}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(9, trace.Enter(0, 0)); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := a.Feed(0, trace.Enter(5, 3)); err == nil {
		t.Error("undefined region accepted")
	}
	if _, err := a.Feed(0, trace.Enter(5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(0, trace.Enter(2, 0)); err == nil {
		t.Error("time travel accepted")
	}
	if _, err := a.Feed(0, trace.Leave(6, 0)); err != nil {
		t.Fatal(err)
	}
	// Extra leave of the dominant region.
	if _, err := a.Feed(0, trace.Leave(7, 0)); err == nil {
		t.Error("unbalanced leave accepted")
	}
}

func TestOnlineWarmupSuppressesEarlyAlerts(t *testing.T) {
	// Two ranks, the very first segment is huge: without warmup it would
	// alert; with warmup it must not (no baseline yet).
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: Options{Warmup: 10}}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feedSegment := func(d trace.Duration) *Alert {
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		var alert *Alert
		alert, err = a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return alert
	}
	if al := feedSegment(1_000_000_000); al != nil {
		t.Fatal("alert during warmup")
	}
	for i := 0; i < 15; i++ {
		if al := feedSegment(1000); al != nil {
			t.Fatalf("alert for normal segment %d", i)
		}
	}
	if al := feedSegment(1_000_000); al == nil {
		t.Fatal("post-warmup outlier not alerted")
	}
}

func TestReservoirReplacement(t *testing.T) {
	// A tiny reservoir forces algorithm-R replacements; detection must
	// still work afterwards.
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: Options{Warmup: 4, ReservoirSize: 8}}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	var last *Alert
	for i := 0; i < 200; i++ {
		d := trace.Duration(1000 + i%7)
		if i == 150 {
			d = 1_000_000
		}
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		if al != nil {
			last = al
		}
	}
	if last == nil || last.SeenSegments != 151 {
		t.Fatalf("outlier not detected after reservoir churn: %+v", last)
	}
	if len(a.Alerts()) == 0 || a.Alerts()[0].Segment.Index != 150 {
		t.Fatalf("Alerts() = %+v", a.Alerts())
	}
}

// TestConfigNewAnalyzer pins the Config construction path: by-ID and
// by-name selection must build equivalent analyzers, name takes
// precedence over ID, and unknown names or bad ranks fail.
func TestConfigNewAnalyzer(t *testing.T) {
	tr, _, dom := fd4Fixture(t)

	byID, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := byID.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := byName.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) || len(a1) == 0 {
		t.Fatalf("by-ID and by-name analyzers disagree: %d vs %d alerts", len(a1), len(a2))
	}

	// Name wins over a (bogus) ID when both are set.
	mixed, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: -42, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}

	if _, err := (Config{Ranks: tr.NumRanks(), Regions: tr.Regions, DominantName: "nope"}).NewAnalyzer(); err == nil {
		t.Fatal("unknown DominantName accepted")
	}
	if _, err := (Config{Ranks: 0, Regions: tr.Regions, Dominant: dom}).NewAnalyzer(); err == nil {
		t.Fatal("zero Ranks accepted")
	}
	if _, err := (Config{Ranks: 4, Regions: tr.Regions, Dominant: trace.RegionID(len(tr.Regions))}).NewAnalyzer(); err == nil {
		t.Fatal("out-of-range Dominant accepted")
	}
}

// feedUniformThenCandidate drives one rank through n identical segments
// (building a zero-MAD baseline) and then one candidate segment of the
// given duration, returning the candidate's alert (or nil).
func feedUniformThenCandidate(t *testing.T, opts Options, n int, base, candidate trace.Duration) *Alert {
	t.Helper()
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: opts}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feed := func(d trace.Duration) *Alert {
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return al
	}
	for i := 0; i < n; i++ {
		if al := feed(base); al != nil {
			t.Fatalf("baseline segment %d alerted: %+v", i, al)
		}
	}
	return feed(candidate)
}

// TestMinRelDeviationSemantics pins the three behaviors of the pointer
// redesign. A uniform baseline has MAD 0, so any excess over the median
// scores z = +Inf — the alert decision then rests entirely on the
// relative-deviation gate, which makes the three settings observable:
// nil keeps the 5 % default, RelDeviation(0) demands any excess at all
// (the value the old sentinel encoding could not express), and a
// negative value disables the gate.
func TestMinRelDeviationSemantics(t *testing.T) {
	const n, base = 40, 1000
	small := trace.Duration(base * 101 / 100) // +1 %: below the 5 % default
	large := trace.Duration(base * 110 / 100) // +10 %: above it

	cases := []struct {
		name          string
		minRel        *float64
		alertsAtSmall bool
		alertsAtLarge bool
	}{
		{"nil applies the 5% default", nil, false, true},
		{"explicit zero alerts on any excess", RelDeviation(0), true, true},
		{"negative disables the gate", RelDeviation(-1), true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Warmup: 4, MinRelDeviation: tc.minRel}
			if got := feedUniformThenCandidate(t, opts, n, base, small) != nil; got != tc.alertsAtSmall {
				t.Errorf("+1%% candidate: alerted=%v, want %v", got, tc.alertsAtSmall)
			}
			if got := feedUniformThenCandidate(t, opts, n, base, large) != nil; got != tc.alertsAtLarge {
				t.Errorf("+10%% candidate: alerted=%v, want %v", got, tc.alertsAtLarge)
			}
		})
	}
}

// TestOnSegmentHook pins the per-segment observer: every completion is
// observed exactly once, warmup completions arrive unscored, and the
// alerted flag matches what Feed returns.
func TestOnSegmentHook(t *testing.T) {
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	type obs struct {
		seg             segment.Segment
		scored, alerted bool
	}
	var seen []obs
	a, err := Config{
		Ranks:   2,
		Regions: regions,
		Options: Options{Warmup: 6},
		OnSegment: func(seg segment.Segment, z float64, scored, alerted bool) {
			seen = append(seen, obs{seg, scored, alerted})
		},
	}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feed := func(rank trace.Rank, d trace.Duration) *Alert {
		if _, err := a.Feed(rank, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(rank, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return al
	}
	alerted := 0
	for i := 0; i < 20; i++ {
		d := trace.Duration(1000 + i%5)
		if i == 15 {
			d = 1_000_000
		}
		if al := feed(trace.Rank(i%2), d); al != nil {
			alerted++
			if !seen[len(seen)-1].alerted {
				t.Fatalf("completion %d: Feed alerted but hook says not", i)
			}
		} else if seen[len(seen)-1].alerted {
			t.Fatalf("completion %d: hook alerted but Feed did not", i)
		}
	}
	if len(seen) != a.SeenSegments() || len(seen) != 20 {
		t.Fatalf("hook observed %d completions, analyzer saw %d", len(seen), a.SeenSegments())
	}
	if alerted == 0 {
		t.Fatal("outlier never alerted")
	}
	for i, o := range seen {
		if wantScored := i >= 6; o.scored != wantScored {
			t.Fatalf("completion %d: scored=%v, want %v", i, o.scored, wantScored)
		}
	}
}

// TestOnlineMismatchedLeaveErrors pins the kernel's structural contract:
// a leave that does not match the innermost open region fails even when
// neither region is the dominant one, and the rank stays failed.
func TestOnlineMismatchedLeaveErrors(t *testing.T) {
	regions := []trace.Region{
		{ID: 0, Name: "f", Paradigm: trace.ParadigmUser},
		{ID: 1, Name: "g", Paradigm: trace.ParadigmUser},
		{ID: 2, Name: "h", Paradigm: trace.ParadigmUser},
	}
	a, err := Config{Ranks: 2, Regions: regions}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []trace.Event{trace.Enter(0, 1), trace.Enter(1, 2)} {
		if _, err := a.Feed(0, ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Feed(0, trace.Leave(2, 1)); err == nil {
		t.Fatal("mismatched leave of a non-dominant region accepted")
	}
	if _, err := a.Feed(0, trace.Leave(3, 2)); err == nil {
		t.Fatal("rank accepted events after a structural violation")
	}
	// Other ranks are unaffected.
	if _, err := a.Feed(1, trace.Enter(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(1, trace.Leave(1, 0)); err != nil {
		t.Fatal(err)
	}
	if a.SeenSegments() != 1 {
		t.Fatalf("seen %d segments, want 1", a.SeenSegments())
	}
}

// TestOnlineRejectsSyncDominant pins construction-time validation: a
// dominant region the classifier counts as synchronization would make
// every SOS-time zero, so NewAnalyzer refuses it as Compute does.
func TestOnlineRejectsSyncDominant(t *testing.T) {
	regions := []trace.Region{
		{ID: 0, Name: "f", Paradigm: trace.ParadigmUser},
		{ID: 1, Name: "MPI_Wait", Paradigm: trace.ParadigmMPI, Role: trace.RoleWait},
	}
	_, err := Config{Ranks: 1, Regions: regions, DominantName: "MPI_Wait"}.NewAnalyzer()
	if !errors.Is(err, segment.ErrSyncRegion) {
		t.Fatalf("sync dominant: err = %v, want ErrSyncRegion", err)
	}
	if _, err := (Config{Ranks: 1, Regions: regions, DominantName: "MPI_Wait", Classifier: segment.ParadigmSync{}}).NewAnalyzer(); err != nil {
		t.Fatalf("dominant rejected under a classifier that does not count it as sync: %v", err)
	}
}

// TestOnlineRetainsNoSegments pins bounded session memory: completed
// segments are handed to the detector as they close and never buffered,
// while Index keeps counting per rank across the hand-offs.
func TestOnlineRetainsNoSegments(t *testing.T) {
	regions := []trace.Region{
		{ID: 0, Name: "f", Paradigm: trace.ParadigmUser},
		{ID: 1, Name: "MPI_Barrier", Paradigm: trace.ParadigmMPI, Role: trace.RoleBarrier},
	}
	var got []segment.Segment
	a, err := Config{
		Ranks: 2, Regions: regions,
		OnSegment: func(seg segment.Segment, _ float64, _, _ bool) { got = append(got, seg) },
	}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	for i := 0; i < 100; i++ {
		rank := trace.Rank(i % 2)
		for _, ev := range []trace.Event{
			trace.Enter(now, 0), trace.Enter(now+2, 1), trace.Leave(now+5, 1), trace.Leave(now+10, 0),
		} {
			if _, err := a.Feed(rank, ev); err != nil {
				t.Fatal(err)
			}
		}
		now += 10
		for r := range a.ranks {
			if segs, _ := a.ranks[r].seg.Segments(0); len(segs) != 0 {
				t.Fatalf("rank %d retains %d segments", r, len(segs))
			}
		}
	}
	if len(got) != 100 {
		t.Fatalf("observed %d segments, want 100", len(got))
	}
	for i, seg := range got {
		want := segment.Segment{Rank: trace.Rank(i % 2), Index: i / 2, Start: trace.Time(10 * i), End: trace.Time(10*i + 10), Sync: 3}
		if seg != want {
			t.Fatalf("segment %d = %+v, want %+v", i, seg, want)
		}
	}
}
