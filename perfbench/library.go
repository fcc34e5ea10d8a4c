package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"perfvar"
)

func (a *archive) source() perfvar.Source {
	if a.path != "" {
		return perfvar.FileSource(a.path)
	}
	return perfvar.ArchiveSource(a.data)
}

// check verifies an analysis headline: the dominant function and the
// injected hotspot as the top-ranked one.
func (a *archive) check(res *perfvar.Result) error {
	if got := res.Selection.Dominant.Name; got != a.dominant {
		return fmt.Errorf("dominant function %q, want %q", got, a.dominant)
	}
	if len(res.Analysis.Hotspots) == 0 {
		return fmt.Errorf("no hotspot reported")
	}
	top := res.Analysis.Hotspots[0].Segment
	if int(top.Rank) != a.hotRank || top.Index != a.hotIndex {
		return fmt.Errorf("top hotspot at rank %d segment %d, want rank %d segment %d", top.Rank, top.Index, a.hotRank, a.hotIndex)
	}
	return nil
}

// libStats is what the closed-loop library slices of a run measured.
type libStats struct {
	lat        samples // untraced analyses
	traced     samples // analyses recorded under spans (traced runs only)
	analyses   int
	events     int64
	allocBytes uint64
}

// libraryLoop runs AnalyzeSource plus the JSON report back to back, one
// caller, in slices of a run. Every report of the archive must be
// byte-identical to the first. With a tracer, every other analysis is
// recorded under spans, so the difference between the two series is the
// tracing overhead.
type libraryLoop struct {
	a     *archive
	src   perfvar.Source
	tl    *tally
	tr    *tracer
	buf   bytes.Buffer
	first []byte
	i     int
	st    libStats
}

func newLibraryLoop(a *archive, tl *tally, tr *tracer) *libraryLoop {
	return &libraryLoop{a: a, src: a.source(), tl: tl, tr: tr,
		st: libStats{lat: samples{name: "analyze_ms"}, traced: samples{name: "analyze_ms traced"}}}
}

// run analyzes back to back until dur has passed, the first analysis
// untimed.
func (l *libraryLoop) run(ctx context.Context, dur time.Duration) {
	// One untimed analysis first, as after the daemon slice the heap and
	// caches are the daemon's; its errors show in the timed ones.
	start := time.Now()
	perfvar.AnalyzeSource(ctx, l.src, perfvar.Options{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for ; time.Since(start) < dur; l.i++ {
		traced := l.tr != nil && l.i%2 == 1
		t0 := time.Now()
		var res *perfvar.Result
		var err error
		if traced {
			root := l.tr.begin("analyze", -1, l.i)
			l.tr.do("engine.analyze", root, l.i, func() { res, err = perfvar.AnalyzeSource(ctx, l.src, perfvar.Options{}) })
			if err == nil {
				l.buf.Reset()
				l.tr.do("report.json", root, l.i, func() { err = res.Report().WriteJSON(&l.buf) })
			}
			l.tr.end(root)
		} else {
			res, err = perfvar.AnalyzeSource(ctx, l.src, perfvar.Options{})
			if err == nil {
				l.buf.Reset()
				err = res.Report().WriteJSON(&l.buf)
			}
		}
		dt := time.Since(t0)
		if traced {
			l.st.traced.add(dt)
		} else {
			l.st.lat.add(dt)
			l.st.analyses++
			l.st.events += l.a.events
		}
		if err == nil {
			err = l.a.check(res)
		}
		if err == nil {
			if l.first == nil {
				l.first = append([]byte(nil), l.buf.Bytes()...)
			} else if !bytes.Equal(l.first, l.buf.Bytes()) {
				err = fmt.Errorf("report bytes differ between analyses of the same archive")
			}
		}
		l.tl.record("analysis", err)
	}
	runtime.ReadMemStats(&ms1)
	l.st.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
}
