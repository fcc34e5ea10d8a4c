// Command perfbench is perfvar's end-to-end benchmark. It builds its
// inputs from a seed, runs one workload for a fixed time, checks every
// output, and prints one JSON result line last:
//
//	go run ./perfbench --workload fd4-archive --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing. With --trace 1 it holds the per-layer metrics of a traced
// run that times each layer by calling it directly (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"perfvar"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// sliceSeconds is about how long one library slice and one daemon slice
// take together.
const sliceSeconds = 5

// workload fixes which archive the library loop analyzes and what share
// of the run its slices get; the daemon slices take the rest.
type workload struct {
	lib      string // "fd4", "synth" or "upload"
	libShare float64
}

var workloadSpecs = map[string]workload{
	"fd4-archive": {lib: "fd4", libShare: 0.4},
	"synth-flood": {lib: "synth", libShare: 0.4},
	"daemon-mix":  {lib: "upload", libShare: 0.2},
}

// tally counts operations attempted and failed, across goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reported  int
}

func (t *tally) record(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.reported < 10 {
		t.reported++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

// env is one set-up: inputs on disk and in memory, and a warm daemon.
type env struct {
	seed       uint64
	dir        string
	storeDir   string
	sessionDir string
	slots      int
	lib        *archive
	uploads    *uploadSet
	live       []*liveRun
	daemon     *daemon
}

func setup(ctx context.Context, root string, seed uint64, w workload) (*env, error) {
	e := &env{seed: seed, dir: root, slots: max(2, runtime.NumCPU())}
	e.storeDir = filepath.Join(root, "store")
	e.sessionDir = filepath.Join(root, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.uploads, err = newUploadSet(seed); err != nil {
		return nil, err
	}
	if e.live, err = liveRuns(seed); err != nil {
		return nil, err
	}
	switch w.lib {
	case "fd4":
		e.lib, err = fd4Archive(mix(seed, 1))
	case "synth":
		e.lib, err = synthArchive(root, seed)
	default:
		e.lib = e.uploads.get(0)
	}
	if err != nil {
		return nil, err
	}
	if e.daemon, err = startDaemon(e.storeDir, e.sessionDir, e.slots); err != nil {
		return nil, err
	}
	// Warm up: one library analysis, and one request of each daemon
	// class on upload 0, which the measured traffic never asks for.
	res, err := perfvar.AnalyzeSource(ctx, e.lib.source(), perfvar.Options{})
	if err == nil {
		err = e.lib.check(res)
	}
	for _, v := range []struct{ view, tier string }{{"analysis", "miss"}, {"analysis", "hit"}, {"heatmap.png", "miss"}, {"lint", "miss"}} {
		if err == nil {
			_, err = e.daemon.upload(e.uploads, 0, v.view, v.tier)
		}
	}
	if err != nil {
		e.teardown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *env) teardown() {
	if e.daemon != nil {
		e.daemon.stop()
		e.daemon = nil
	}
	os.RemoveAll(e.dir)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fd4-archive, synth-flood or daemon-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced per-layer run, 0: end-to-end run")
	flag.Parse()
	w, ok := workloadSpecs[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a perfvar checkout")
		os.Exit(2)
	}
	root := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	res, err := run(root, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for k, m := range res.Metrics {
		if !validName(k) || !validUnit(m.Unit) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric %q = %v %q\n", k, m.Value, m.Unit)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets up under root, runs one workload for total and removes root.
func run(root string, w workload, seed uint64, total time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// A traced run gives half its time to the end-to-end slices (for the
	// daemon counters and the tracing overhead) and half to the ledger.
	phases := total
	if traced {
		phases = total / 2
	}
	libDur := time.Duration(float64(phases) * w.libShare)
	daemonDur := phases - libDur

	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.teardown()
		}
		t0 := time.Now()
		e, err = setup(ctx, filepath.Join(root, fmt.Sprint(i)), seed, w)
		if err != nil {
			os.RemoveAll(root)
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(root)
	defer func() { e.teardown() }()
	fmt.Printf("setup_s runs: %v\n", setups)

	tl := &tally{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	perfvar.SetJobs(0)
	libLoop := newLibraryLoop(e.lib, tl, tr)
	load := newDaemonLoad(e, tl)
	// Library and daemon slices alternate, so that every series samples the
	// whole run and a slow stretch of the host hits each of them alike.
	// Each slice starts from a collected heap, so the garbage of one (a
	// synth-flood analysis allocates ~130 MiB) is not the next one's
	// cost.
	n := max(2, int(math.Round(phases.Seconds()/sliceSeconds)))
	for i := 0; i < n; i++ {
		settle()
		libLoop.run(ctx, libDur/time.Duration(n))
		settle()
		if err := load.run(daemonDur / time.Duration(n)); err != nil {
			return nil, err
		}
	}
	lib, ds := libLoop.st, load.finish()
	lateP50, lateMax := lateness(ds.lateness)
	restarts := make([]float64, len(ds.restarts))
	for i, d := range ds.restarts {
		restarts[i] = ms(d)
	}
	fmt.Printf("%d slices; daemon restart median %.1f ms; generator lateness p50 %.3f ms, max %.3f ms over %d requests\n",
		n, median(restarts), lateP50, lateMax, len(ds.lateness))

	res := &result{Metrics: map[string]metric{}}
	if traced {
		if err := ledgerRun(ctx, e, total-phases, tl, lib, ds, res.Metrics); err != nil {
			return nil, err
		}
	} else {
		endToEnd(setups, lib, ds, tl, res.Metrics)
	}
	res.Attempted, res.Failed = tl.attempted, tl.failed
	res.Correct = tl.failed == 0 && tl.attempted > 0
	return res, nil
}

// settle collects the heap between slices. It keeps the freed pages: a
// long-running perfvar keeps them too, and returning them would charge
// the next slice for faulting them back in (synth-flood analyses read
// ~10% slower).
func settle() { runtime.GC() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lateness summarizes how late the generator sent its requests, in ms.
func lateness(l []time.Duration) (p50, worst float64) {
	v := make([]float64, len(l))
	for i, d := range l {
		v[i] = ms(d)
		worst = max(worst, v[i])
	}
	return median(v), worst
}

// endToEnd fills the end-to-end metrics of an untraced run. The tails
// (p90 of analyses, cold uploads and frame POSTs) are printed, not
// reported: on a shared host they follow how busy its other tenants are
// far more than the medians do, too much to hold a regression bound.
func endToEnd(setups []float64, lib libStats, ds *daemonStats, tl *tally, out map[string]metric) {
	var notes []string
	for _, s := range []*samples{&lib.lat, &ds.cold, &ds.frame} {
		v, note := s.tail(90)
		notes = append(notes, fmt.Sprintf("%s tail %.3f ms (%s)", s.name, v, note))
	}
	out["setup_s"] = metric{median(setups), "s"}
	out["analyze_ms_p50"] = metric{lib.lat.p50(), "ms"}
	perAnalysis := float64(lib.events) / float64(lib.analyses)
	eps, _ := lib.lat.windowed(minPerMedianWindow, func(win []float64) float64 {
		var sum float64
		for _, v := range win {
			sum += v
		}
		return float64(len(win)) * perAnalysis / (sum / 1000)
	})
	out["events_per_s"] = metric{eps, "1/s"}
	out["alloc_mib_per_analysis"] = metric{float64(lib.allocBytes) / float64(lib.analyses) / (1 << 20), "MiB"}
	out["cold_ms_p50"] = metric{ds.cold.p50(), "ms"}
	out["hit_ms_p50"] = metric{ds.hit.p50(), "ms"}
	out["disk_ms_p50"] = metric{ds.disk.p50(), "ms"}
	out["render_ms_p50"] = metric{ds.render.p50(), "ms"}
	out["lint_ms_p50"] = metric{ds.lint.p50(), "ms"}
	out["frame_ms_p50"] = metric{ds.frame.p50(), "ms"}
	out["alert_lag_ms_p50"] = metric{ds.alertLag.p50(), "ms"}
	out["ok_ratio"] = metric{float64(tl.attempted-tl.failed) / float64(max(tl.attempted, 1)), "ratio"}
	for _, s := range []*samples{&ds.hit, &ds.disk, &ds.render, &ds.lint, &ds.alertLag} {
		notes = append(notes, fmt.Sprintf("%s: %d samples", s.name, len(s.ms)))
	}
	fmt.Println(strings.Join(notes, "; "))
}

// ledgerRun runs ledger rounds for dur and fills the per-layer metrics.
func ledgerRun(ctx context.Context, e *env, dur time.Duration, tl *tally, lib libStats, ds *daemonStats, out map[string]metric) error {
	prev := perfvar.SetJobs(1)
	defer perfvar.SetJobs(prev)
	l, err := newLedger(ctx, e)
	if err != nil {
		return fmt.Errorf("ledger set-up: %w", err)
	}
	defer l.close()
	settle()
	// The round spans are kept apart from the library loop's spans.
	tr := newTracer()
	start := time.Now()
	rounds := 0
	for rounds < 3 || time.Since(start) < dur {
		tl.record("ledger round", l.round(ctx, tr, rounds))
		rounds++
	}

	self := selfByName(tr.spans, selfTimes(tr.spans))
	med := func(name string) float64 { return median(self[name]) }
	analyze1 := med("engine.analyze_1w")
	mpibin := analyze1 - med("engine.analyze_1w_nobins")
	layerSum := mpibin
	for _, n := range engineLayers {
		layerSum += med(n)
	}
	engineSelf := analyze1 - layerSum
	libBytes, err := l.lib.archiveBytes()
	if err != nil {
		return err
	}

	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	set("trace.scan_ms", "ms", med("trace.scan"))
	set("trace.decode_ms", "ms", med("trace.decode"))
	set("trace.events", "count", float64(l.lib.events))
	set("trace.bytes", "bytes", float64(libBytes))
	set("trace.frame_decode_ms", "ms", med("trace.frame_decode"))
	set("callstack.replay_ms", "ms", med("callstack.replay"))
	set("segment.candidates_ms", "ms", med("segment.candidates"))
	set("segment.records", "count", float64(l.records))
	set("segment.useful_ratio", "ratio", float64(l.useful)/float64(l.records))
	set("engine.analyze_1w_ms", "ms", analyze1)
	set("engine.mpibin_ms", "ms", mpibin)
	set("engine.mpi_intervals", "count", float64(l.mpiIntervals))
	set("engine.self_ms", "ms", engineSelf)
	set("dominant.select_ms", "ms", med("dominant.select"))
	set("imbalance.stats_ms", "ms", med("imbalance.stats"))
	set("report.json_ms", "ms", med("report.json"))
	set("vis.heatmap_ms", "ms", med("vis.heatmap"))
	set("vis.png_ms", "ms", med("vis.png"))
	set("vis.png_bytes", "bytes", float64(l.pngBytes))
	set("lint.run_ms", "ms", med("lint.run"))
	set("lint.diagnostics", "count", float64(l.diagnostics))
	set("parallel.speedup", "ratio", analyze1/med("engine.analyze_jN"))
	set("serve.hash_ms", "ms", med("serve.hash"))
	set("serve.overhead_ms", "ms", ds.hit.p50()-med("serve.hash")-med("report.json"))
	set("serve.computed", "count", float64(ds.computed))
	set("serve.hit_ratio", "ratio", float64(ds.hits)/float64(max(ds.hits+ds.misses, 1)))
	set("store.encode_ms", "ms", med("store.encode"))
	set("store.put_ms", "ms", med("store.put"))
	set("store.get_ms", "ms", med("store.get"))
	set("store.decode_ms", "ms", med("store.decode"))
	set("store.entry_bytes", "bytes", float64(l.entryBytes))
	set("ingest.feed_ms", "ms", med("ingest.feed"))
	set("online.feed_ns_per_event", "ns", med("online.feed")*1e6/float64(len(l.liveEvents)))
	set("online.alert_delay_segments", "count", float64(l.alertDelay))

	// Accounting: the layers must cover the 1-worker analysis, so that
	// no layer goes missing.
	overhead := lib.traced.p50() - lib.lat.p50()
	var accErr error
	if math.Abs(engineSelf) > 0.15*analyze1 {
		accErr = fmt.Errorf("engine.self_ms %.3f ms is outside ±15%% of the 1-worker analysis (%.3f ms)", engineSelf, analyze1)
	}
	tl.record("accounting", accErr)
	fmt.Printf("accounting: %d rounds; 1-worker analysis %.3f ms, layer sum %.3f ms, engine.self_ms %.3f ms (%+.1f%%); tracing overhead %.3f ms per analysis (%.3f traced vs %.3f untraced, %d+%d samples)\n",
		rounds, analyze1, layerSum, engineSelf, 100*engineSelf/analyze1, overhead, lib.traced.p50(), lib.lat.p50(), len(lib.traced.ms), len(lib.lat.ms))
	fmt.Printf("separation: engine.mpibin_ms is %.1f%% of the 1-worker analysis; trace.decode_ms + segment.candidates_ms is %.1f%%\n",
		100*mpibin/analyze1, 100*(med("trace.decode")+med("segment.candidates"))/analyze1)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span %-28s n=%-5d median self %.4f ms\n", n, len(self[n]), median(self[n]))
	}
	return nil
}
