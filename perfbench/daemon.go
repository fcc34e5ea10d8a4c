package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"perfvar/internal/serve"
)

// The daemon's traffic repeats every period, each class at a fixed
// offset within it. Every period starts with the light classes: the
// live streams at 0, 8 and 16 ms, hit at 24 and, in periods that also
// carry a cold upload, disk at 29. At 35 ms comes one heavy request: in
// every three periods two cold uploads and one view, render and lint
// taking turns. At the service times measured when the benchmark was
// added (cold 12-17 ms, render 25-35, lint 38-48, a live finalize 2-7,
// the rest 1-3) nothing is due while another request runs, and the heavy
// request has 65 ms before the next period, so even in a slow stretch of
// the host each class mostly measures its own path. A change that
// lengthens a request makes it overlap its neighbours, whose latency then
// shows it. The daemon stays near a sixth of two cores busy.
const (
	period  = 100 * time.Millisecond
	liveAt  = 0 // stream s at liveAt + s*liveGap
	liveGap = 8 * time.Millisecond
	hitAt   = 24 * time.Millisecond
	diskAt  = 29 * time.Millisecond // after a restart only
	heavyAt = 35 * time.Millisecond
)

// Which periods k carry the classes that do not come every period.
func coldPeriod(k int) bool   { return k%3 != 2 }
func renderPeriod(k int) bool { return k%6 == 2 }
func lintPeriod(k int) bool   { return k%6 == 5 }

var pngMagic = []byte("\x89PNG\r\n\x1a\n")

// daemon is an in-process perfvard behind a loopback HTTP server.
type daemon struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func startDaemon(storeDir, sessionDir string, slots int) (*daemon, error) {
	srv, err := serve.New(serve.Config{StoreDir: storeDir, SessionDir: sessionDir})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: slots, MaxIdleConnsPerHost: slots}
	return &daemon{srv: srv, hs: hs, client: &http.Client{Transport: tr, Timeout: time.Minute}}, nil
}

// stop waits for outstanding requests, then shuts the daemon down.
func (d *daemon) stop() {
	d.hs.Close()
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// headline is the part of the analysis report every upload checks.
type headline struct {
	Trace    string `json:"trace"`
	Ranks    int    `json:"ranks"`
	Dominant string `json:"dominantFunction"`
	Hotspots []struct {
		Rank      int `json:"rank"`
		Iteration int `json:"iteration"`
	} `json:"hotspots"`
}

func (a *archive) checkReport(body []byte, ranks int) error {
	var h headline
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("report: %v", err)
	}
	if a.name != "" && h.Trace != a.name || h.Ranks != ranks || h.Dominant != a.dominant || len(h.Hotspots) == 0 ||
		h.Hotspots[0].Rank != a.hotRank || h.Hotspots[0].Iteration != a.hotIndex {
		return fmt.Errorf("report headline %+v does not match the archive", h)
	}
	return nil
}

// upload posts upload j for one view and checks status and cache tier.
func (d *daemon) upload(u *uploadSet, j int, view, tier string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.hs.URL+"/api/v1/analyze?view="+view, u.body(j))
	if err != nil {
		return nil, err
	}
	req.ContentLength = u.size(j)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", view, resp.StatusCode, bytes.TrimSpace(body))
	}
	if got := resp.Header.Get("X-Perfvar-Cache"); got != tier {
		return nil, fmt.Errorf("%s: X-Perfvar-Cache %q, want %q", view, got, tier)
	}
	return body, nil
}

// daemonStats is what the daemon slices of a run measured.
type daemonStats struct {
	cold, hit, disk, render, lint, frame, alertLag samples
	lateness                                       []time.Duration
	hits, misses, computed                         int64
	restarts                                       []time.Duration
}

// daemonLoad drives the daemon in open-loop slices of a run. Every
// slice after the first starts by restarting the daemon over the same
// store, so its traffic adds disk-tier hits on archives the earlier
// slices cached.
type daemonLoad struct {
	env    *env
	p      *picker
	st     *daemonStats
	tl     *tally
	slices int
}

func newDaemonLoad(env *env, tl *tally) *daemonLoad {
	return &daemonLoad{env: env, p: newPicker(env.seed), tl: tl, st: &daemonStats{
		cold: samples{name: "cold_ms"}, hit: samples{name: "hit_ms"}, disk: samples{name: "disk_ms"},
		render: samples{name: "render_ms"}, lint: samples{name: "lint_ms"},
		frame: samples{name: "frame_ms"}, alertLag: samples{name: "alert_lag_ms"},
	}}
}

// run restarts the daemon unless this is the first slice, warms it up,
// then drives whole periods of traffic until dur has passed since the
// warm-up began.
func (dl *daemonLoad) run(dur time.Duration) error {
	if dl.slices > 0 {
		if err := dl.restart(); err != nil {
			return err
		}
	}
	// One untimed cold upload first, so that the slice's first requests
	// do not pay for the heap and caches the library slice left behind.
	start := time.Now()
	i := dl.p.cold()
	body, err := dl.env.daemon.upload(dl.env.uploads, i, "analysis", "miss")
	if err == nil {
		err = dl.env.uploads.meta(i).checkReport(body, uploadRanks)
	}
	if err != nil {
		return fmt.Errorf("slice warm-up: %w", err)
	}
	dl.p.cached(i, true)
	runSlice(dl.env, dl.p, dl.st, int((dur-time.Since(start))/period), dl.slices > 0, dl.tl)
	dl.slices++
	return nil
}

// countServed adds the daemon's own counters to the stats.
func (dl *daemonLoad) countServed() {
	h, m, c := dl.env.daemon.srv.Metrics()
	dl.st.hits, dl.st.misses, dl.st.computed = dl.st.hits+h, dl.st.misses+m, dl.st.computed+c
}

// restart stops the daemon and starts it over the same store. On return
// env.daemon is the restarted daemon.
func (dl *daemonLoad) restart() error {
	dl.countServed()
	t0 := time.Now()
	dl.env.daemon.stop()
	d, err := startDaemon(dl.env.storeDir, dl.env.sessionDir, dl.env.slots)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	dl.env.daemon = d
	dl.st.restarts = append(dl.st.restarts, time.Since(t0))
	// Warm the restarted daemon as set-up warmed the first: one disk hit
	// on the warm-up upload, which the measured traffic never asks for.
	if _, err := d.upload(dl.env.uploads, 0, "analysis", "disk"); err != nil {
		return fmt.Errorf("restart warm-up: %w", err)
	}
	dl.p.startGeneration()
	return nil
}

// finish returns what the slices measured.
func (dl *daemonLoad) finish() *daemonStats {
	dl.countServed()
	return dl.st
}

// recentCached bounds the archives hits, renders and lints choose from
// to the latest ones cached, which the daemon's default-size memory tier
// still holds.
const recentCached = 32

// picker hands each request class its target upload. Cold uploads take
// never-seen archives in index order (0 is the warm-up's); the other
// classes pick among archives whose pipeline result is known to be in
// the memory tier, or, for disk hits, in the store only: cached before
// the last restart and not asked for since.
type picker struct {
	mu       sync.Mutex
	rng      *rand.Rand
	nextCold int
	inMemory []int // pipeline result in the memory tier this generation
	stored   []int // cold uploads cached, in order: disk-tier targets
	genStart int   // len(stored) at the last restart
	diskNext int
	rendered map[int]bool
	linted   map[int]bool
}

func newPicker(seed uint64) *picker {
	return &picker{rng: rand.New(rand.NewSource(int64(seed))), nextCold: 1, rendered: map[int]bool{}, linted: map[int]bool{}}
}

func (p *picker) startGeneration() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inMemory, p.genStart = nil, len(p.stored)
}

func (p *picker) cold() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextCold++
	return p.nextCold - 1
}

// cached records that upload i's pipeline result is in the memory tier;
// cold says it was computed, and so also written to the store.
func (p *picker) cached(i int, cold bool) {
	p.mu.Lock()
	p.inMemory = append(p.inMemory, i)
	if cold {
		p.stored = append(p.stored, i)
	}
	p.mu.Unlock()
}

func (p *picker) recent() []int {
	return p.inMemory[max(0, len(p.inMemory)-recentCached):]
}

func (p *picker) hit() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.recent()
	if len(r) == 0 {
		return 0, false
	}
	return r[p.rng.Intn(len(r))], true
}

func (p *picker) disk() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.diskNext >= p.genStart {
		return 0, false
	}
	p.diskNext++
	return p.stored[p.diskNext-1], true
}

// latest returns the most recently cached archive not yet in done,
// marking it.
func (p *picker) latest(done map[int]bool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.recent()
	for k := len(r) - 1; k >= 0; k-- {
		if !done[r[k]] {
			done[r[k]] = true
			return r[k], true
		}
	}
	return 0, false
}

// slots returns the due offsets at offset at in every period k < n
// that in selects.
func slots(n int, at time.Duration, in func(k int) bool) []time.Duration {
	var out []time.Duration
	for k := 0; k < n; k++ {
		if in(k) {
			out = append(out, time.Duration(k)*period+at)
		}
	}
	return out
}

// runSlice runs n periods of traffic against env.daemon.
func runSlice(env *env, p *picker, st *daemonStats, n int, afterRestart bool, tl *tally) {
	d := env.daemon
	ups := env.uploads
	type class struct {
		name  string
		s     *samples
		times []time.Duration
		run   func() (bool, error) // false: no target yet, not attempted
	}
	classes := []class{
		{"cold", &st.cold, slots(n, heavyAt, coldPeriod), func() (bool, error) {
			i := p.cold()
			body, err := d.upload(ups, i, "analysis", "miss")
			if err == nil {
				err = ups.meta(i).checkReport(body, uploadRanks)
			}
			if err == nil {
				p.cached(i, true)
			}
			return true, err
		}},
		{"hit", &st.hit, slots(n, hitAt, func(int) bool { return true }), func() (bool, error) {
			i, ok := p.hit()
			if !ok {
				return false, nil
			}
			body, err := d.upload(ups, i, "analysis", "hit")
			if err == nil {
				err = ups.meta(i).checkReport(body, uploadRanks)
			}
			return true, err
		}},
		{"render", &st.render, slots(n, heavyAt, renderPeriod), func() (bool, error) {
			i, ok := p.latest(p.rendered)
			if !ok {
				return false, nil
			}
			body, err := d.upload(ups, i, "heatmap.png", "miss")
			if err == nil && !bytes.HasPrefix(body, pngMagic) {
				err = fmt.Errorf("heatmap.png body is not a PNG")
			}
			return true, err
		}},
		{"lint", &st.lint, slots(n, heavyAt, lintPeriod), func() (bool, error) {
			i, ok := p.latest(p.linted)
			if !ok {
				return false, nil
			}
			body, err := d.upload(ups, i, "lint", "miss")
			if err == nil {
				var lr struct {
					Diagnostics *json.RawMessage `json:"diagnostics"`
				}
				if jerr := json.Unmarshal(body, &lr); jerr != nil || lr.Diagnostics == nil {
					err = fmt.Errorf("lint view is not a lint result: %v", jerr)
				}
			}
			return true, err
		}},
	}
	if afterRestart {
		classes = append(classes, class{"disk", &st.disk, slots(n, diskAt, coldPeriod), func() (bool, error) {
			i, ok := p.disk()
			if !ok {
				return false, nil
			}
			body, err := d.upload(ups, i, "analysis", "disk")
			if err == nil {
				err = ups.meta(i).checkReport(body, uploadRanks)
			}
			if err == nil {
				p.cached(i, false)
			}
			return true, err
		}})
	}

	// Every scheduled op keeps the series its latency goes into; ops a
	// class could not target (no upload cached yet) are not counted.
	type scheduled struct {
		op        op
		sink      *samples
		attempted bool
	}
	var sched []*scheduled
	for _, c := range classes {
		for _, t := range c.times {
			so := &scheduled{sink: c.s}
			so.op = op{due: t, run: func() {
				ok, err := c.run()
				if ok {
					so.attempted = true
					tl.record(c.name, err)
				}
			}}
			sched = append(sched, so)
		}
	}
	live := scheduleLive(env, n, tl)
	for _, lo := range live.ops {
		sched = append(sched, &scheduled{op: lo.op, sink: lo.sink(st), attempted: true})
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].op.due < sched[b].op.due })
	ops := make([]op, len(sched))
	for i, so := range sched {
		ops[i] = so.op
	}
	live.start = time.Now()
	for i, tm := range openLoop(live.start, ops, env.slots) {
		if !sched[i].attempted || sched[i].sink == nil {
			continue
		}
		sched[i].sink.add(tm.latency)
		st.lateness = append(st.lateness, tm.lateness)
	}
	for _, lag := range live.lags() {
		st.alertLag.add(lag)
	}
}
