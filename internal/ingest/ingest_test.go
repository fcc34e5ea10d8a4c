package ingest

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfvar/internal/online"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// testRequest declares a minimal two-region run: main wrapping
// iteration (the dominant loop).
func testRequest(ranks int, policy PolicySpec) CreateRequest {
	return CreateRequest{
		Name:  "live-test",
		Ranks: ranks,
		Regions: []RegionSpec{
			{Name: "main"},
			{Name: "iteration", Role: "loop"},
		},
		Dominant: "iteration",
		Policy:   policy,
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// feed pushes evs for rank through the frame codec into the session —
// the exact path a frames POST takes.
func feed(t *testing.T, s *Session, rank trace.Rank, evs ...trace.Event) error {
	t.Helper()
	buf, err := trace.AppendFrame(nil, rank, evs)
	if err != nil {
		t.Fatal(err)
	}
	r, count, payload, rest, err := trace.DecodeFrame(buf, 0)
	if err != nil || len(rest) != 0 {
		t.Fatalf("frame round-trip: err=%v rest=%d", err, len(rest))
	}
	return s.FeedFrame(r, count, payload)
}

// iterations feeds n dominant-region invocations of the given durations
// onto rank, starting at time start, and returns the time after the
// last one.
func iterations(t *testing.T, s *Session, rank trace.Rank, start int64, durations ...int64) int64 {
	t.Helper()
	now := start
	for _, d := range durations {
		if err := feed(t, s, rank, trace.Enter(now, 1), trace.Leave(now+d, 1)); err != nil {
			t.Fatal(err)
		}
		now += d
	}
	return now
}

func TestSessionConsecutiveEpisodes(t *testing.T) {
	m := newTestManager(t, Config{})
	s, err := m.Create(testRequest(2, PolicySpec{Warmup: 4, Consecutive: 3}))
	if err != nil {
		t.Fatal(err)
	}

	// Baseline on both ranks, then a 2-long deviation burst (below K=3),
	// then a 4-long burst (one episode), then another after recovery.
	now := iterations(t, s, 0, 0, repeat(1000, 20)...)
	now = iterations(t, s, 1, 0, repeat(1000, 20)...)
	if got := s.Receipt().Alerts; got != 0 {
		t.Fatalf("baseline raised %d alerts", got)
	}

	now = iterations(t, s, 0, now, 9000, 9000) // streak 2 < 3: no alert
	now = iterations(t, s, 0, now, 1000, 1000)
	if got := s.Receipt().Alerts; got != 0 {
		t.Fatalf("short burst raised %d alerts", got)
	}

	now = iterations(t, s, 0, now, 9000, 9000, 9000, 9000) // one episode
	if got := s.Receipt().Alerts; got != 1 {
		t.Fatalf("first episode raised %d alerts, want 1", got)
	}
	now = iterations(t, s, 0, now, 1000, 1000) // recovery resets the streak
	now = iterations(t, s, 0, now, 9000, 9000, 9000)
	resp := s.Alerts(0)
	if len(resp.Alerts) != 2 {
		t.Fatalf("got %d alerts, want 2 episodes", len(resp.Alerts))
	}
	for i, al := range resp.Alerts {
		if al.Rank != 0 {
			t.Errorf("alert %d on rank %d, want 0", i, al.Rank)
		}
		if al.Streak != 3 {
			t.Errorf("alert %d at streak %d, want 3", i, al.Streak)
		}
		if al.ID != i {
			t.Errorf("alert %d has ID %d", i, al.ID)
		}
	}
	_ = now
}

func repeat(d int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestSessionAlertCursor(t *testing.T) {
	m := newTestManager(t, Config{})
	s, err := m.Create(testRequest(1, PolicySpec{Warmup: 4}))
	if err != nil {
		t.Fatal(err)
	}
	now := iterations(t, s, 0, 0, repeat(1000, 20)...)
	now = iterations(t, s, 0, now, 50000)
	resp := s.Alerts(0)
	if len(resp.Alerts) != 1 || resp.NextCursor != 1 {
		t.Fatalf("first poll: %d alerts, cursor %d", len(resp.Alerts), resp.NextCursor)
	}
	// Resuming from the cursor sees nothing until a new episode lands.
	if resp := s.Alerts(resp.NextCursor); len(resp.Alerts) != 0 {
		t.Fatalf("resumed poll returned %d stale alerts", len(resp.Alerts))
	}
	now = iterations(t, s, 0, now, 1000, 1000)
	iterations(t, s, 0, now, 50000)
	resp2 := s.Alerts(resp.NextCursor)
	if len(resp2.Alerts) != 1 || resp2.Alerts[0].ID != 1 || resp2.NextCursor != 2 {
		t.Fatalf("second poll: %+v", resp2)
	}
	// Out-of-range cursors clamp instead of failing.
	if resp := s.Alerts(99); len(resp.Alerts) != 0 || resp.NextCursor != 2 {
		t.Fatalf("clamped poll: %+v", resp)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	m := newTestManager(t, Config{MaxSessionBytes: 64})
	s, err := m.Create(testRequest(2, PolicySpec{}))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Get("no-such-session"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown id: %v", err)
	}
	if got, err := m.Get(s.ID()); err != nil || got != s {
		t.Errorf("Get(%q) = %v, %v", s.ID(), got, err)
	}

	// Malformed payload.
	if err := s.FeedFrame(0, 3, []byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad payload: %v", err)
	}
	// Rank outside the declared range.
	buf, _ := trace.AppendFrame(nil, 7, []trace.Event{trace.Enter(1, 0)})
	r, count, payload, _, _ := trace.DecodeFrame(buf, 0)
	if err := s.FeedFrame(r, count, payload); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range rank: %v", err)
	}

	// Time order: a frame starting before the rank's floor is rejected
	// whole and changes nothing.
	if err := feed(t, s, 0, trace.Enter(100, 1), trace.Leave(200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := feed(t, s, 0, trace.Enter(150, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("regressing frame: %v", err)
	}
	before := s.Receipt()
	if before.Events != 2 {
		t.Fatalf("events = %d after rejected frame, want 2", before.Events)
	}

	// Budget: the configured 64-byte cap trips and maps to ErrTooLarge.
	var big []trace.Event
	for i := int64(0); i < 40; i++ {
		big = append(big, trace.Enter(300+2*i, 1), trace.Leave(301+2*i, 1))
	}
	err = feed(t, s, 0, big...)
	if !errors.Is(err, ErrOverBudget) || !errors.Is(err, trace.ErrTooLarge) {
		t.Errorf("over budget: %v", err)
	}

	// Finalize, then feed: 409 semantics, and the tombstone still polls.
	data, err := s.FinalizeArchive()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty archive")
	}
	if err := feed(t, s, 0, trace.Enter(500, 1)); !errors.Is(err, ErrFinalized) {
		t.Errorf("feed after finalize: %v", err)
	}
	if _, err := s.FinalizeArchive(); !errors.Is(err, ErrFinalized) {
		t.Errorf("double finalize: %v", err)
	}
	if resp := s.Alerts(0); resp.State != "finalized" {
		t.Errorf("tombstone state %q", resp.State)
	}
}

func TestCreateValidation(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 2})
	cases := []struct {
		name string
		req  CreateRequest
	}{
		{"zero ranks", CreateRequest{Ranks: 0, Regions: []RegionSpec{{Name: "f"}}, Dominant: "f"}},
		{"excessive ranks", CreateRequest{Ranks: maxSessionRanks + 1, Regions: []RegionSpec{{Name: "f"}}, Dominant: "f"}},
		{"no regions", CreateRequest{Ranks: 1, Dominant: "f"}},
		{"unnamed region", CreateRequest{Ranks: 1, Regions: []RegionSpec{{}}, Dominant: "f"}},
		{"bad paradigm", CreateRequest{Ranks: 1, Regions: []RegionSpec{{Name: "f", Paradigm: "cuda"}}, Dominant: "f"}},
		{"bad role", CreateRequest{Ranks: 1, Regions: []RegionSpec{{Name: "f", Role: "kernel"}}, Dominant: "f"}},
		{"bad metric mode", CreateRequest{Ranks: 1, Regions: []RegionSpec{{Name: "f"}}, Metrics: []MetricSpec{{Name: "m", Mode: "rate"}}, Dominant: "f"}},
		{"unknown dominant", CreateRequest{Ranks: 1, Regions: []RegionSpec{{Name: "f"}}, Dominant: "g"}},
		{"proc name count", CreateRequest{Ranks: 2, Regions: []RegionSpec{{Name: "f"}}, Procs: []string{"a"}, Dominant: "f"}},
		{"negative consecutive", CreateRequest{Ranks: 1, Regions: []RegionSpec{{Name: "f"}}, Dominant: "f", Policy: PolicySpec{Consecutive: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Create(tc.req); !errors.Is(err, ErrSpec) {
				t.Errorf("got %v, want ErrSpec", err)
			}
		})
	}

	// The open-session cap: the third create is refused until one closes.
	a, err := m.Create(testRequest(1, PolicySpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testRequest(1, PolicySpec{})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testRequest(1, PolicySpec{})); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("limit: %v", err)
	}
	a.Discard()
	if _, err := m.Create(testRequest(1, PolicySpec{})); err != nil {
		t.Fatalf("create after discard: %v", err)
	}
}

// TestFinalizeArchiveByteIdentity: a session fed a synthetic workload's
// events frame by frame finalizes into exactly the bytes the workload's
// own archive writer produces — live ingestion and offline collection
// are one artifact.
func TestFinalizeArchiveByteIdentity(t *testing.T) {
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = 4
	cfg.Iterations = 6
	cfg.KernelCalls = 3
	cfg.SlowRank = 1
	cfg.SlowIteration = 3

	m := newTestManager(t, Config{})
	s, err := m.Create(RequestFromHeader(cfg.Header(), "iteration", PolicySpec{}))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent per-rank feeders, as a measurement daemon would run.
	var wg sync.WaitGroup
	errs := make([]error, cfg.Ranks)
	for rank := 0; rank < cfg.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var batch []trace.Event
			flush := func() error {
				if len(batch) == 0 {
					return nil
				}
				err := feedRaw(s, trace.Rank(rank), batch)
				batch = batch[:0]
				return err
			}
			err := cfg.StreamRank(rank, func(ev trace.Event) error {
				batch = append(batch, ev)
				if len(batch) == 16 {
					return flush()
				}
				return nil
			})
			if err == nil {
				err = flush()
			}
			errs[rank] = err
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	got, err := s.FinalizeArchive()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cfg.WriteArchive(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("finalized archive differs from offline archive: %d vs %d bytes", len(got), want.Len())
	}
}

// feedRaw is feed without the testing.T plumbing, for goroutines.
func feedRaw(s *Session, rank trace.Rank, evs []trace.Event) error {
	buf, err := trace.AppendFrame(nil, rank, evs)
	if err != nil {
		return err
	}
	r, count, payload, _, err := trace.DecodeFrame(buf, 0)
	if err != nil {
		return err
	}
	return s.FeedFrame(r, count, payload)
}

// TestSessionBoundedMemory: feeding a multi-hundred-MiB-equivalent
// workload through a session must keep peak heap O(ranks × depth +
// reservoir) — the events land in the spool and the analyzer's bounded
// state, never in memory.
func TestSessionBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB-equivalent workload; skipped in -short")
	}
	cfg := workloads.DefaultSynthetic() // ~5.8 M events
	eventBytes := int64(cfg.NumEvents()) * 40

	m := newTestManager(t, Config{MaxSessionBytes: 1 << 30})
	s, err := m.Create(RequestFromHeader(cfg.Header(), "iteration", PolicySpec{}))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	for rank := 0; rank < cfg.Ranks; rank++ {
		var batch []trace.Event
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := feedRaw(s, trace.Rank(rank), batch)
			batch = batch[:0]
			return err
		}
		err := cfg.StreamRank(rank, func(ev trace.Event) error {
			batch = append(batch, ev)
			if len(batch) == 4096 {
				return flush()
			}
			return nil
		})
		if err == nil {
			err = flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Receipt().Events; got != cfg.NumEvents() {
		t.Fatalf("session saw %d events, want %d", got, cfg.NumEvents())
	}
	close(stop)
	<-done

	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	const bound = 48 << 20
	t.Logf("peak heap growth %d MiB over a %d MiB-equivalent stream", growth>>20, eventBytes>>20)
	if growth > bound {
		t.Errorf("peak heap grew %d MiB, want <= %d MiB (O(ranks×depth+reservoir))", growth>>20, bound>>20)
	}
	if growth*4 > eventBytes {
		t.Errorf("peak heap growth %d B is not small against the %d B materialized equivalent", growth, eventBytes)
	}
	s.Discard()
}

// TestPolicyMinRelDeviation: the wire policy's pointer field reaches the
// analyzer with the pointer semantics intact (zero expressible).
func TestPolicyMinRelDeviation(t *testing.T) {
	m := newTestManager(t, Config{})
	// MAD-0 baseline; +1% candidate only alerts when the gate allows it.
	run := func(p *float64) int {
		s, err := m.Create(testRequest(1, PolicySpec{Warmup: 4, MinRelDeviation: p}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Discard()
		now := iterations(t, s, 0, 0, repeat(1000, 20)...)
		iterations(t, s, 0, now, 1010)
		return s.Receipt().Alerts
	}
	if got := run(nil); got != 0 {
		t.Errorf("default gate alerted on +1%% excess (%d alerts)", got)
	}
	if got := run(online.RelDeviation(0)); got != 1 {
		t.Errorf("zero gate missed +1%% excess (%d alerts)", got)
	}
}

// TestSessionPoisonedByMismatchedLeave: a leave that does not match the
// innermost open region is a structural violation even when no dominant
// invocation is involved; the analyzer rejects it mid-frame, which
// poisons the session for every later frame.
func TestSessionPoisonedByMismatchedLeave(t *testing.T) {
	m := newTestManager(t, Config{})
	req := testRequest(2, PolicySpec{})
	req.Regions = append(req.Regions, RegionSpec{Name: "helper"})
	s, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(t, s, 0, trace.Enter(0, 0), trace.Enter(1, 2), trace.Leave(2, 0)); err == nil {
		t.Fatal("mismatched leave accepted")
	}
	if err := feed(t, s, 1, trace.Enter(0, 1), trace.Leave(1, 1)); err == nil {
		t.Fatal("poisoned session accepted a later frame")
	}
}
