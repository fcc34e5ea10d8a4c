package segment

import (
	"fmt"
	"math"

	"perfvar/internal/trace"
)

// The call-stack kernel: the one implementation of the paper's SOS-time
// rule (a segment's sync time is the union of the outermost
// synchronization intervals inside the dominant invocation). Compute,
// the streaming engine, lint's segmentation facts and the online
// detector all feed their events through a CandidateSet; they differ
// only in which regions they track and whether a budget applies.
//
// A CandidateSet segments one rank's stream at every tracked region
// simultaneously. The streaming engine does not know the dominant
// function until every rank's profile is merged, so it tracks every
// candidate region during its single pass, within a configurable memory
// budget; once the dominant function is selected the winner's segments
// are handed to the matrix and the losers are discarded. Only when the
// budget overflows — traces whose candidate functions produce
// pathologically many segments — does the engine fall back to a second
// pass through a one-region kernel (NewRegionSegmenter).
//
// One stack walk serves all tracked regions. Each call-stack frame
// carries a lazily propagated synchronization accumulator: when a
// sync-classified frame is left, its wall-clock duration is credited to
// the frame below it; when a non-sync frame is left, whatever it
// accumulated is both recorded on its own segment (if it is a top-level
// tracked invocation) and passed further down. A sync frame discards
// what it accumulated from frames above, because its own duration
// already covers those intervals. For any region R the accumulator of
// R's outermost frame therefore sums exactly the maximal sync intervals
// that lie inside R.
//
// Structural violations — an undefined region, a leave without enter, a
// leave that does not match the innermost open frame, a leave timed
// before its enter, and (at Finish) frames still open at the end of the
// stream — are recorded as the first error, with the rank and event
// index. The violating event is skipped, and Segments refuses to answer
// for a violated stream.

// DefaultCandidateBudget bounds, per rank, the segment records a
// CandidateSet buffers across all candidate regions before it starts
// evicting: 1<<16 records ≈ 3 MiB. Well-structured traces stay far
// below it — the budget exists so adversarial traces degrade to a
// second pass instead of to unbounded memory.
const DefaultCandidateBudget = 1 << 16

// candFrame is one open invocation on the candidate stack.
type candFrame struct {
	region   trace.RegionID
	enter    trace.Time
	syncAcc  trace.Duration // completed sync intervals directly above this frame
	topLevel bool           // first open invocation of a tracked region
}

// CandidateSet segments one rank's event stream at every tracked region
// at once. Feed events in stream order; after the stream ends, Segments
// returns the completed segment list of any tracked region that stayed
// within budget.
type CandidateSet struct {
	rank    trace.Rank
	sync    []bool // per-region classifier verdicts (SyncMask)
	track   []bool // regions whose segments are recorded
	open    []int32
	stack   []candFrame
	segs    [][]Segment
	drained []int // per-region segments handed off by Drain; nil until the first Drain
	stored  int
	budget  int
	events  int64
	err     error
}

// NewCandidateSet returns a candidate segmenter for one rank. track
// selects the regions whose segments are recorded (candidate dominant
// functions); syncMask comes from SyncMask or Prepare and must classify
// every tracked region as non-sync. budget caps the total buffered
// segment records (<=0 means DefaultCandidateBudget).
func NewCandidateSet(rank trace.Rank, track, syncMask []bool, budget int) *CandidateSet {
	if budget <= 0 {
		budget = DefaultCandidateBudget
	}
	// Eviction clears track entries, so every rank needs its own copy.
	tr := make([]bool, len(track))
	copy(tr, track)
	return newCandidateSet(rank, tr, syncMask, budget)
}

// NewRegionSegmenter returns a kernel for one rank that tracks only
// region, without a budget: the dedicated segmentation pass at a known
// dominant function. syncMask comes from SyncMask or Prepare. Nothing is
// ever evicted, so once Finish returns nil, Segments(region) reports ok.
func NewRegionSegmenter(rank trace.Rank, region trace.RegionID, syncMask []bool) *CandidateSet {
	track := make([]bool, len(syncMask))
	if region >= 0 && int(region) < len(track) {
		track[region] = true
	}
	return newCandidateSet(rank, track, syncMask, math.MaxInt)
}

func newCandidateSet(rank trace.Rank, track, syncMask []bool, budget int) *CandidateSet {
	return &CandidateSet{
		rank:   rank,
		sync:   syncMask,
		track:  track,
		open:   make([]int32, len(syncMask)),
		segs:   make([][]Segment, len(syncMask)),
		budget: budget,
	}
}

// Feed consumes one event. A structural violation is recorded (see Err)
// and the event skipped.
func (c *CandidateSet) Feed(ev trace.Event) {
	c.events++
	switch ev.Kind {
	case trace.KindEnter:
		r := ev.Region
		if r < 0 || int(r) >= len(c.open) {
			c.fail("undefined region %d", r)
			return
		}
		c.stack = append(c.stack, candFrame{
			region:   r,
			enter:    ev.Time,
			topLevel: c.track[r] && c.open[r] == 0,
		})
		c.open[r]++
	case trace.KindLeave:
		n := len(c.stack)
		if n == 0 {
			c.failLeave(ev, nil)
			return
		}
		fr := &c.stack[n-1]
		r := fr.region
		if r != ev.Region || ev.Time < fr.enter {
			c.failLeave(ev, fr)
			return
		}
		if c.sync[r] {
			// The frame's own wall-clock interval subsumes any sync
			// intervals completed inside it: credit the full duration
			// below, discard what bubbled up.
			if n > 1 {
				c.stack[n-2].syncAcc += ev.Time - fr.enter
			}
		} else {
			if fr.topLevel {
				c.emit(r, fr.enter, ev.Time, fr.syncAcc)
			}
			if n > 1 {
				c.stack[n-2].syncAcc += fr.syncAcc
			}
		}
		c.open[r]--
		c.stack = c.stack[:n-1]
	}
}

// failLeave classifies a leave the stack cannot accept; fr is the
// innermost open frame, nil on an empty stack.
func (c *CandidateSet) failLeave(ev trace.Event, fr *candFrame) {
	switch {
	case ev.Region < 0 || int(ev.Region) >= len(c.open):
		c.fail("undefined region %d", ev.Region)
	case fr == nil:
		c.fail("leave of region %d without enter", ev.Region)
	case fr.region != ev.Region:
		c.fail("leave of region %d while inside %d", ev.Region, fr.region)
	default:
		c.fail("leave at %d before enter at %d", ev.Time, fr.enter)
	}
}

// fail records the first structural violation, at the event just fed.
func (c *CandidateSet) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("segment: rank %d event %d: %s", c.rank, c.events-1, fmt.Sprintf(format, args...))
	}
}

func (c *CandidateSet) emit(r trace.RegionID, start, end trace.Time, sync trace.Duration) {
	if !c.track[r] {
		return
	}
	idx := len(c.segs[r])
	if c.drained != nil {
		idx += c.drained[r]
	}
	c.segs[r] = append(c.segs[r], Segment{
		Rank:  c.rank,
		Index: idx,
		Start: start,
		End:   end,
		Sync:  sync,
	})
	c.stored++
	if c.stored > c.budget {
		c.evict()
	}
}

// evict drops the candidate with the most buffered segments — the
// fine-grained region flooding the budget — and stops tracking it. If
// that region later wins the dominant selection, the engine re-streams
// it in a fallback pass.
func (c *CandidateSet) evict() {
	worst, worstLen := trace.RegionID(-1), 0
	for r, s := range c.segs {
		if len(s) > worstLen {
			worst, worstLen = trace.RegionID(r), len(s)
		}
	}
	if worst < 0 {
		return
	}
	c.stored -= worstLen
	c.segs[worst] = nil
	c.track[worst] = false
}

// Err returns the first structural violation fed so far, or nil.
func (c *CandidateSet) Err() error { return c.err }

// Finish ends the stream: frames still open are a violation. It returns
// the first violation of the whole stream, or nil.
func (c *CandidateSet) Finish() error {
	if c.err == nil && len(c.stack) > 0 {
		c.err = fmt.Errorf("segment: rank %d: %d unclosed invocations at end of stream", c.rank, len(c.stack))
	}
	return c.err
}

// Segments returns the rank's completed segments for region r. ok is
// false when the region was not tracked, was evicted over budget, or the
// stream violated the call-stack structure — the caller must then fall
// back to a dedicated segmentation pass (or report Err).
func (c *CandidateSet) Segments(r trace.RegionID) ([]Segment, bool) {
	if c.err != nil || r < 0 || int(r) >= len(c.track) || !c.track[r] {
		return nil, false
	}
	return c.segs[r], true
}

// Drain hands off region r's segments completed since the last Drain
// and forgets them, so a caller that drains as it feeds holds only the
// open call stack. Index keeps counting across drains. The returned
// slice is valid until the next Feed.
func (c *CandidateSet) Drain(r trace.RegionID) []Segment {
	s := c.segs[r]
	if len(s) == 0 {
		return nil
	}
	if c.drained == nil {
		c.drained = make([]int, len(c.segs))
	}
	c.drained[r] += len(s)
	c.stored -= len(s)
	c.segs[r] = s[:0]
	return s
}
