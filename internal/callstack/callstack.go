// Package callstack reconstructs function invocations from enter/leave
// event streams. It yields per-invocation records with inclusive and
// exclusive times (the distinction of the paper's Figure 1), parent/child
// links, and flat per-region profiles used by dominant-function selection
// and by the profiler baseline.
package callstack

import (
	"context"
	"fmt"
	"math"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// NoParent marks a top-level invocation.
const NoParent int32 = -1

// Replay's structural limits: parent links are stored as int32 and
// depths as int16, so streams beyond these bounds cannot be represented.
// Replay returns a *LimitError instead of silently corrupting links.
const (
	// MaxInvocations is the largest per-rank invocation count Replay
	// supports.
	MaxInvocations = math.MaxInt32
	// MaxDepth is the deepest call stack Replay supports.
	MaxDepth = math.MaxInt16
)

// LimitError reports a stream that exceeds one of Replay's structural
// limits (MaxInvocations or MaxDepth).
type LimitError struct {
	Rank  trace.Rank
	What  string // "invocations" or "call-stack depth"
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("callstack: rank %d: %s exceed the representable maximum %d", e.Rank, e.What, e.Limit)
}

// Invocation is one completed region invocation on one rank.
type Invocation struct {
	Region trace.RegionID
	Rank   trace.Rank
	Enter  trace.Time
	Leave  trace.Time
	// Parent indexes the invocations slice of the same rank, or NoParent.
	Parent int32
	// Depth is the call-stack depth, 0 for top-level invocations.
	Depth int16
	// ChildTime is the summed inclusive time of all direct children.
	ChildTime trace.Duration
	// Recursive reports whether an ancestor invocation has the same region
	// (the invocation is self-nested). Aggregations that sum inclusive
	// times skip recursive invocations to avoid double counting.
	Recursive bool
}

// Inclusive returns the invocation's inclusive time: the complete duration
// from enter to leave, including sub-calls.
func (inv *Invocation) Inclusive() trace.Duration { return inv.Leave - inv.Enter }

// Exclusive returns the invocation's exclusive time: the duration spent
// directly inside the region, excluding sub-calls.
func (inv *Invocation) Exclusive() trace.Duration { return inv.Inclusive() - inv.ChildTime }

// Replay reconstructs the invocations of one process stream, in enter
// order. It fails on unbalanced or improperly nested enter/leave events.
func Replay(pt *trace.ProcessTrace) ([]Invocation, error) {
	invs := make([]Invocation, 0, len(pt.Events)/2)
	var stack []int32 // indices into invs
	sameRegionDepth := make(map[trace.RegionID]int)
	for i, ev := range pt.Events {
		switch ev.Kind {
		case trace.KindEnter:
			if len(invs) >= MaxInvocations {
				return nil, &LimitError{Rank: pt.Proc.Rank, What: "invocations", Limit: MaxInvocations}
			}
			if len(stack) > MaxDepth {
				return nil, &LimitError{Rank: pt.Proc.Rank, What: "call-stack depth", Limit: MaxDepth}
			}
			parent := NoParent
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			invs = append(invs, Invocation{
				Region:    ev.Region,
				Rank:      pt.Proc.Rank,
				Enter:     ev.Time,
				Parent:    parent,
				Depth:     int16(len(stack)),
				Recursive: sameRegionDepth[ev.Region] > 0,
			})
			stack = append(stack, int32(len(invs)-1))
			sameRegionDepth[ev.Region]++
		case trace.KindLeave:
			if len(stack) == 0 {
				return nil, fmt.Errorf("callstack: rank %d event %d: leave without enter", pt.Proc.Rank, i)
			}
			top := stack[len(stack)-1]
			inv := &invs[top]
			if inv.Region != ev.Region {
				return nil, fmt.Errorf("callstack: rank %d event %d: leave region %d while inside %d",
					pt.Proc.Rank, i, ev.Region, inv.Region)
			}
			if ev.Time < inv.Enter {
				return nil, fmt.Errorf("callstack: rank %d event %d: leave at %d before enter at %d",
					pt.Proc.Rank, i, ev.Time, inv.Enter)
			}
			inv.Leave = ev.Time
			stack = stack[:len(stack)-1]
			sameRegionDepth[ev.Region]--
			if inv.Parent != NoParent {
				invs[inv.Parent].ChildTime += inv.Inclusive()
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("callstack: rank %d: %d unclosed invocations", pt.Proc.Rank, len(stack))
	}
	return invs, nil
}

// ReplayAll reconstructs invocations for every rank of tr, fanning the
// independent per-rank replays out across CPUs. The result is indexed by
// rank; on failure the error of the lowest failing rank is returned (the
// same one a serial rank loop would report).
func ReplayAll(tr *trace.Trace) ([][]Invocation, error) {
	return ReplayAllContext(context.Background(), tr)
}

// ReplayAllContext is ReplayAll observing ctx: a cancelled context stops
// the per-rank fan-out between ranks and returns ctx.Err().
func ReplayAllContext(ctx context.Context, tr *trace.Trace) ([][]Invocation, error) {
	return parallel.MapCtx(ctx, tr.NumRanks(), func(rank int) ([]Invocation, error) {
		return Replay(&tr.Procs[rank])
	})
}

// RegionProfile aggregates all invocations of one region.
type RegionProfile struct {
	Region trace.RegionID
	// Count is the total number of invocations across all ranks.
	Count int64
	// SumInclusive is the summed inclusive time of all non-recursive
	// invocations. Skipping self-nested invocations keeps the aggregate
	// meaningful for recursive functions (each wall-clock interval is
	// counted once).
	SumInclusive trace.Duration
	// SumExclusive is the summed exclusive time of all invocations.
	SumExclusive trace.Duration
	// MaxInclusive is the largest single inclusive time observed.
	MaxInclusive trace.Duration
	// MinInclusive is the smallest single inclusive time observed.
	MinInclusive trace.Duration
	// Ranks is the number of distinct ranks that invoked the region.
	Ranks int
}

// Profile is a flat per-region aggregation over a whole trace — the
// information a parallel profiler (TAU, HPCToolkit) would report.
type Profile struct {
	Regions []RegionProfile // indexed by RegionID
	// TotalTime is the summed wall-clock span of all ranks (sum over ranks
	// of last-event minus first-event time).
	TotalTime trace.Duration
}

// rankProfile is one rank's contribution to the flat profile.
type rankProfile struct {
	regions []RegionProfile // MinInclusive -1 marks "not observed"
	seen    []bool          // region invoked on this rank
}

func newRankProfile(nregions int) rankProfile {
	part := rankProfile{
		regions: make([]RegionProfile, nregions),
		seen:    make([]bool, nregions),
	}
	for id := range part.regions {
		part.regions[id].MinInclusive = -1
	}
	return part
}

// newProfile returns an empty profile with the MinInclusive sentinel set,
// ready for mergeRankProfiles.
func newProfile(nregions int) *Profile {
	p := &Profile{Regions: make([]RegionProfile, nregions)}
	for id := range p.Regions {
		p.Regions[id].Region = trace.RegionID(id)
		p.Regions[id].MinInclusive = -1
	}
	return p
}

// mergeRankProfiles folds per-rank partials into p in rank order. All
// aggregations are exact integer sums and min/max folds, so the result is
// identical to a serial single-pass accumulation.
func mergeRankProfiles(p *Profile, partials []rankProfile) {
	for _, part := range partials {
		for id := range p.Regions {
			src, dst := &part.regions[id], &p.Regions[id]
			dst.Count += src.Count
			dst.SumInclusive += src.SumInclusive
			dst.SumExclusive += src.SumExclusive
			if src.MaxInclusive > dst.MaxInclusive {
				dst.MaxInclusive = src.MaxInclusive
			}
			if src.MinInclusive >= 0 && (dst.MinInclusive < 0 || src.MinInclusive < dst.MinInclusive) {
				dst.MinInclusive = src.MinInclusive
			}
			if part.seen[id] {
				dst.Ranks++
			}
		}
	}
	for id := range p.Regions {
		if p.Regions[id].MinInclusive < 0 {
			p.Regions[id].MinInclusive = 0
		}
	}
}

// ProfileOf computes the flat profile of tr: each rank is folded by a
// StreamReplay and the partials merged with ProfileFromStreams — the
// same fold the streaming engine performs, so both paths produce
// byte-identical profiles.
func ProfileOf(tr *trace.Trace) (*Profile, error) {
	return ProfileOfContext(context.Background(), tr)
}

// ProfileOfContext is ProfileOf observing ctx; the per-rank replay
// fan-out stops between ranks once ctx is cancelled. On failure the
// error of the lowest failing rank is returned.
func ProfileOfContext(ctx context.Context, tr *trace.Trace) (*Profile, error) {
	reps, err := parallel.MapCtx(ctx, tr.NumRanks(), func(rank int) (*StreamReplay, error) {
		r := NewStreamReplay(tr.Procs[rank].Proc.Rank, len(tr.Regions))
		for _, ev := range tr.Procs[rank].Events {
			if err := r.Feed(ev); err != nil {
				return nil, err
			}
		}
		return r, r.Finish()
	})
	if err != nil {
		return nil, err
	}
	return ProfileFromStreams(len(tr.Regions), reps), nil
}
