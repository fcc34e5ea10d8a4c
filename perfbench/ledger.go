package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perfvar"
	"perfvar/internal/callstack"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/ingest"
	"perfvar/internal/lint"
	"perfvar/internal/online"
	"perfvar/internal/store"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
)

// engineLayers are the spans whose self times, with engine.mpibin_ms,
// should add up to one 1-worker AnalyzeSource.
var engineLayers = []string{"trace.scan", "trace.decode", "callstack.replay", "segment.candidates", "dominant.select", "imbalance.stats"}

// scan opens the archive's per-rank framing: from bytes, or from the
// file through io.ReaderAt. The returned closer releases the file.
func (a *archive) scan() (*trace.RankStreams, io.Closer, error) {
	if a.path == "" {
		rs, err := trace.OpenRankStreamsBytes(a.data)
		return rs, io.NopCloser(nil), err
	}
	f, err := os.Open(a.path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	rs, err := trace.OpenRankStreams(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return rs, f, nil
}

// archiveBytes is the archive's size.
func (a *archive) archiveBytes() (int64, error) {
	if a.path == "" {
		return int64(len(a.data)), nil
	}
	fi, err := os.Stat(a.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

type rankEvent struct {
	rank trace.Rank
	ev   trace.Event
}

// ledger times each layer by calling its public functions, at one
// worker, on the run's inputs: the engine layers on the library archive
// (decoded once up front, so decode is counted once), the serving layers
// on one daemon upload, the live layers on one live session's frames.
type ledger struct {
	lib    *archive
	events [][]trace.Event // the library archive, pre-decoded per rank
	header *trace.Header
	track  []bool
	sync   []bool

	up    *archive
	upRes *perfvar.Result

	live       *liveRun
	liveEvents []rankEvent // the live run's events in arrival order

	dir    string
	st     *store.Store
	ingest *ingest.Manager

	// Exact counts, the same every round.
	mpiIntervals int64
	records      int64
	useful       int64
	diagnostics  int
	pngBytes     int
	entryBytes   int
	alertDelay   int
}

func newLedger(ctx context.Context, env *env) (*ledger, error) {
	l := &ledger{lib: env.lib, up: env.uploads.get(0), live: env.live[0], dir: filepath.Join(env.dir, "ledger")}
	rs, c, err := l.lib.scan()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	l.header = rs.Header()
	isMPI := make([]bool, len(l.header.Regions))
	for i, r := range l.header.Regions {
		isMPI[i] = r.Paradigm == trace.ParadigmMPI
	}
	l.events = make([][]trace.Event, rs.NumRanks())
	for rank := range l.events {
		depth := 0
		err := rs.StreamRank(rank, func(ev trace.Event) error {
			l.events[rank] = append(l.events[rank], ev)
			// Maximal MPI intervals, counted as the engine records them.
			if ev.Region >= 0 && int(ev.Region) < len(isMPI) && isMPI[ev.Region] {
				switch ev.Kind {
				case trace.KindEnter:
					depth++
				case trace.KindLeave:
					depth--
					if depth == 0 {
						l.mpiIntervals++
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	l.sync = segment.SyncMask(l.header.Regions, nil)
	l.track = make([]bool, len(l.header.Regions))
	for i, r := range l.header.Regions {
		l.track[i] = !l.sync[i] && r.Paradigm == trace.ParadigmUser
	}
	h := l.live.header
	for _, b := range l.live.batches {
		for rest := b; len(rest) > 0; {
			rank, count, payload, next, err := trace.DecodeFrame(rest, 4<<20)
			if err != nil {
				return nil, err
			}
			err = trace.DecodeFrameEvents(payload, count, len(h.Regions), len(h.Metrics), len(h.Procs), func(ev trace.Event) error {
				l.liveEvents = append(l.liveEvents, rankEvent{rank, ev})
				return nil
			})
			if err != nil {
				return nil, err
			}
			rest = next
		}
	}
	if l.upRes, err = perfvar.AnalyzeSource(ctx, perfvar.ArchiveSource(l.up.data), perfvar.Options{}); err != nil {
		return nil, err
	}
	if l.st, err = store.Open(filepath.Join(l.dir, "store"), 0); err != nil {
		return nil, err
	}
	if l.ingest, err = ingest.NewManager(ingest.Config{SpoolDir: filepath.Join(l.dir, "spool")}); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ledger) close() {
	l.ingest.Close()
}

// round runs every layer once under spans sharing request id req, and
// checks what each returns.
func (l *ledger) round(ctx context.Context, tr *tracer, req int) error {
	root := tr.begin("ledger.round", -1, req)
	defer tr.end(root)
	var err error
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		id := tr.begin(name, root, req)
		e := fn()
		tr.end(id)
		if e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
	}
	nregions := len(l.header.Regions)

	var rs *trace.RankStreams
	var closer io.Closer
	step("trace.scan", func() (e error) { rs, closer, e = l.lib.scan(); return })
	if err != nil {
		return err
	}
	defer closer.Close()
	var decoded int64
	step("trace.decode", func() error {
		for rank := 0; rank < rs.NumRanks(); rank++ {
			if e := rs.StreamRank(rank, func(trace.Event) error { decoded++; return nil }); e != nil {
				return e
			}
		}
		if decoded != l.lib.events {
			return fmt.Errorf("decoded %d events, want %d", decoded, l.lib.events)
		}
		return nil
	})

	reps := make([]*callstack.StreamReplay, len(l.events))
	step("callstack.replay", func() error {
		for rank, evs := range l.events {
			r := callstack.NewStreamReplay(trace.Rank(rank), nregions)
			for _, ev := range evs {
				if e := r.Feed(ev); e != nil {
					return e
				}
			}
			if e := r.Finish(); e != nil {
				return e
			}
			reps[rank] = r
		}
		return nil
	})
	cands := make([]*segment.CandidateSet, len(l.events))
	step("segment.candidates", func() error {
		for rank, evs := range l.events {
			c := segment.NewCandidateSet(trace.Rank(rank), l.track, l.sync, 0)
			for _, ev := range evs {
				c.Feed(ev)
			}
			cands[rank] = c
		}
		return nil
	})
	var sel dominant.Selection
	step("dominant.select", func() (e error) {
		prof := callstack.ProfileFromStreams(nregions, reps)
		sel, e = dominant.SelectFromProfileDefs(l.header.Regions, len(reps), prof, dominant.Options{})
		return
	})
	if err != nil {
		return err
	}
	m := &segment.Matrix{Region: sel.Dominant.Region, RegionName: sel.Dominant.Name, PerRank: make([][]segment.Segment, len(cands))}
	var records, useful int64
	for rank, c := range cands {
		for r := range l.track {
			segs, ok := c.Segments(trace.RegionID(r))
			records += int64(len(segs))
			if ok && trace.RegionID(r) == sel.Dominant.Region {
				m.PerRank[rank] = segs
				useful += int64(len(segs))
			}
		}
	}
	l.records, l.useful = records, useful
	var an *imbalance.Analysis
	step("imbalance.stats", func() (e error) { an, e = imbalance.AnalyzeContext(ctx, m, imbalance.Options{}); return })
	if err == nil && (len(an.Hotspots) == 0 || int(an.Hotspots[0].Segment.Rank) != l.lib.hotRank) {
		err = fmt.Errorf("layer-built analysis lost the hotspot")
	}

	analyze := func(opts perfvar.Options) func() error {
		return func() error {
			res, e := perfvar.AnalyzeSource(ctx, l.lib.source(), opts)
			if e == nil {
				e = l.lib.check(res)
			}
			return e
		}
	}
	step("engine.analyze_1w", analyze(perfvar.Options{}))
	step("engine.analyze_1w_nobins", analyze(perfvar.Options{MPIFractionBins: -1}))
	perfvar.SetJobs(0)
	step("engine.analyze_jN", analyze(perfvar.Options{}))
	perfvar.SetJobs(1)

	// Serving layers, on one daemon upload.
	var buf bytes.Buffer
	step("report.json", func() error { buf.Reset(); return l.upRes.Report().WriteJSON(&buf) })
	var img *vis.Image
	step("vis.heatmap", func() error { img = l.upRes.Heatmap(vis.RenderOptions{}); return nil })
	step("vis.png", func() error {
		buf.Reset()
		e := vis.WritePNG(&buf, img)
		l.pngBytes = buf.Len()
		return e
	})
	step("lint.run", func() error {
		src, e := perfvar.ArchiveSource(l.up.data).Open(ctx)
		if e != nil {
			return e
		}
		defer src.Close()
		res, e := lint.RunSource(ctx, src, lint.Options{})
		if e == nil {
			l.diagnostics = len(res.Diagnostics)
		}
		return e
	})
	var sum [sha256.Size]byte
	step("serve.hash", func() error { sum = sha256.Sum256(l.up.data); return nil })
	key := fmt.Sprintf("%x|pipeline|round-%d", sum, req)
	step("store.encode", func() error { buf.Reset(); return l.upRes.EncodeStored(&buf) })
	payload := append([]byte(nil), buf.Bytes()...)
	l.entryBytes = len(payload)
	step("store.put", func() error { return l.st.Put(key, payload) })
	var got []byte
	step("store.get", func() error {
		var ok bool
		if got, ok = l.st.Get(key); !ok {
			return fmt.Errorf("entry %s missing", key)
		}
		return nil
	})
	step("store.decode", func() (e error) { _, e = perfvar.DecodeStoredResult(bytes.NewReader(got)); return })
	if err == nil {
		l.st.Delete(key)
	}

	// Live layers, on one session's frame batches.
	h := l.live.header
	for _, b := range l.live.batches {
		step("trace.frame_decode", func() error {
			for rest := b; len(rest) > 0; {
				_, count, payload, next, e := trace.DecodeFrame(rest, 4<<20)
				if e != nil {
					return e
				}
				if e := trace.DecodeFrameEvents(payload, count, len(h.Regions), len(h.Metrics), len(h.Procs), func(trace.Event) error { return nil }); e != nil {
					return e
				}
				rest = next
			}
			return nil
		})
	}
	sess, e := l.ingest.Create(ingest.RequestFromHeader(h, "iteration", ingest.PolicySpec{}))
	if e != nil {
		return e
	}
	defer sess.Discard()
	for _, b := range l.live.batches {
		type frame struct {
			rank    trace.Rank
			count   uint64
			payload []byte
		}
		var frames []frame
		for rest := b; len(rest) > 0; {
			rank, count, payload, next, e := trace.DecodeFrame(rest, 4<<20)
			if e != nil {
				return e
			}
			frames = append(frames, frame{rank, count, payload})
			rest = next
		}
		step("ingest.feed", func() error {
			for _, f := range frames {
				if e := sess.FeedFrame(f.rank, f.count, f.payload); e != nil {
					return e
				}
			}
			return nil
		})
	}
	step("online.feed", l.feedOnline)
	return err
}

// feedOnline feeds the live run's events straight into an online
// analyzer, in the order the session receives them, and counts the
// segments the alert trails the straggler's segment by.
func (l *ledger) feedOnline() error {
	seen, slowAt, alertAt := 0, -1, -1
	an, err := online.Config{
		Ranks:        liveRanks,
		Regions:      l.live.header.Regions,
		DominantName: "iteration",
		OnSegment: func(seg segment.Segment, _ float64, _, alerted bool) {
			seen++
			if int(seg.Rank) == l.live.slowRank && seg.Index == liveSlowIter {
				slowAt = seen
			}
			if alerted && alertAt < 0 && slowAt >= 0 && int(seg.Rank) == l.live.slowRank {
				alertAt = seen
			}
		},
	}.NewAnalyzer()
	if err != nil {
		return err
	}
	for _, re := range l.liveEvents {
		if _, err := an.Feed(re.rank, re.ev); err != nil {
			return err
		}
	}
	if slowAt < 0 || alertAt < slowAt {
		return fmt.Errorf("online analyzer did not alert on the straggler (straggler segment %d, alert %d)", slowAt, alertAt)
	}
	l.alertDelay = alertAt - slowAt
	return nil
}
