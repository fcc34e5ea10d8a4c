package main

import (
	"context"
	"fmt"
	"time"

	"perfvar/internal/ingest"
)

// liveOp is one step of a live session in the open-loop schedule.
type liveOp struct {
	op    op
	batch bool // a frame POST, timed into frame_ms
}

func (l liveOp) sink(st *daemonStats) *samples {
	if l.batch {
		return &st.frame
	}
	return nil
}

// liveSession is the state one session's chained steps share. Steps run
// strictly in order: each waits for its predecessor, and that wait
// counts in its latency because latency runs from the due time.
type liveSession struct {
	run     *liveRun
	id      string
	slowDue time.Duration // due offset of the batch holding the straggler
	// alertsBefore is the alert count the last receipt before the
	// straggler batch reported: the detector may flag an unlucky
	// segment earlier, and only a later alert can be the straggler's.
	alertsBefore int
	alertAt      time.Time
	failed       bool
	prevDone     chan struct{}
}

// liveSchedule is a slice's live traffic: liveStreams streams of
// sessions, each stream's sessions back to back. A session takes one
// step per period: create, one batch per iteration, then the alert check
// and finalize.
type liveSchedule struct {
	ops      []liveOp
	sessions []*liveSession
	start    time.Time // set when the slice starts
}

// liveStreams is how many sessions are open at once.
const liveStreams = 3

func (ls *liveSchedule) lags() []time.Duration {
	var out []time.Duration
	for _, s := range ls.sessions {
		if !s.alertAt.IsZero() {
			out = append(out, s.alertAt.Sub(ls.start.Add(s.slowDue)))
		}
	}
	return out
}

// scheduleLive schedules the live sessions that fit in n periods. The
// streams start two steps apart, so their finalizes fall in different
// periods.
func scheduleLive(env *env, n int, tl *tally) *liveSchedule {
	ls := &liveSchedule{}
	client := &ingest.Client{Base: env.daemon.hs.URL, HTTP: env.daemon.client}
	ctx := context.Background()
	const steps = liveIters + 2
	for stream := 0; stream < liveStreams; stream++ {
		for k := 2 * stream; k+steps <= n; k += steps {
			ls.session(env, client, ctx, tl, func(step int) time.Duration {
				return time.Duration(k+step)*period + liveAt + time.Duration(stream)*liveGap
			})
		}
	}
	return ls
}

// session schedules one session whose step i is due at due(i).
func (ls *liveSchedule) session(env *env, client *ingest.Client, ctx context.Context, tl *tally, due func(step int) time.Duration) {
	s := &liveSession{run: env.live[len(ls.sessions)%len(env.live)], slowDue: due(liveSlowIter + 1)}
	ls.sessions = append(ls.sessions, s)
	// chain wraps a step so it runs after its predecessor.
	chain := func(fn func()) func() {
		prev := s.prevDone
		done := make(chan struct{})
		s.prevDone = done
		return func() {
			if prev != nil {
				<-prev
			}
			defer close(done)
			fn()
		}
	}
	ls.ops = append(ls.ops, liveOp{op: op{due: due(0), run: chain(func() {
		resp, err := client.Create(ctx, ingest.RequestFromHeader(s.run.header, "iteration", ingest.PolicySpec{}))
		if err == nil {
			s.id = resp.Session
		} else {
			s.failed = true
		}
		tl.record("live.create", err)
	})}})
	for i, b := range s.run.batches {
		i, b := i, b
		ls.ops = append(ls.ops, liveOp{batch: true, op: op{due: due(i + 1), run: chain(func() {
			if s.failed {
				tl.record("live.frames", fmt.Errorf("session was not created"))
				return
			}
			rec, err := client.PushFrames(ctx, s.id, b)
			now := time.Now()
			switch {
			case err != nil:
			case i < liveSlowIter:
				s.alertsBefore = rec.Alerts
			case rec.Alerts > s.alertsBefore && s.alertAt.IsZero():
				s.alertAt = now
			}
			tl.record("live.frames", err)
		})}})
	}
	ls.ops = append(ls.ops, liveOp{op: op{due: due(liveIters + 1), run: chain(func() {
		if s.failed {
			tl.record("live.finalize", fmt.Errorf("session was not created"))
			return
		}
		tl.record("live.finalize", finalizeSession(ctx, client, s))
	})}})
}

// finalizeSession checks that the session alerted on its straggler rank
// while still open, then finalizes it and checks the report.
func finalizeSession(ctx context.Context, client *ingest.Client, s *liveSession) error {
	alerts, err := client.Alerts(ctx, s.id, 0)
	if err != nil {
		return err
	}
	found := false
	for _, a := range alerts.Alerts {
		found = found || a.ID >= s.alertsBefore && a.Rank == s.run.slowRank && a.SegmentIndex == liveSlowIter
	}
	if s.alertAt.IsZero() || !found {
		return fmt.Errorf("session %s: no alert on straggler rank %d before finalize (alerts %+v)", s.id, s.run.slowRank, alerts.Alerts)
	}
	body, err := client.Finalize(ctx, s.id)
	if err != nil {
		return err
	}
	want := &archive{dominant: "iteration", hotRank: s.run.slowRank, hotIndex: liveSlowIter}
	return want.checkReport(body, liveRanks)
}
