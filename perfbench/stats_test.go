package main

import (
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, -1}, {10, -1}, {11, 9}, {20, 50}, {50, 80}, {99, 89}, {100, 90}, {250, 96}, {1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule's promise: at least ten samples lie strictly above the
	// nearest-rank percentile it picks, and one more percent would break it.
	for n := 11; n <= 2000; n++ {
		p := tailPercentile(n)
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		beyond := func(p int) int { return n - 1 - int(percentile(sorted, p)) }
		if beyond(p) < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, beyond(p))
		}
		if p < 100 && beyond(p+1) >= 10 {
			t.Fatalf("n=%d: p%d is not the highest percentile with ten beyond", n, p)
		}
	}
}

func TestSamplesTail(t *testing.T) {
	s := samples{name: "x"}
	for i := 1; i <= 100; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	if v, _ := s.tail(90); v != 90 {
		t.Errorf("p90 of 1..100 ms = %v, want 90", v)
	}
	if v := s.p50(); v != 50 {
		t.Errorf("p50 of 1..100 ms = %v, want 50", v)
	}
	// 40 samples make two median windows, too few to outvote each other:
	// the series is taken whole (a median of two windows would pick 10).
	s.ms = s.ms[:40]
	if v := s.p50(); v != 20 {
		t.Errorf("p50 of 1..40 ms = %v, want 20", v)
	}
	// With 50 samples a p90 has only five beyond it: the tail drops to p80.
	s.ms = append(s.ms, make([]float64, 10)...)
	for i := 40; i < 50; i++ {
		s.ms[i] = float64(i + 1)
	}
	if v, note := s.tail(90); v != 40 || note != "x: 50 samples, p80 over 1 windows" {
		t.Errorf("tail of 1..50 = %v (%q), want 40 at p80", v, note)
	}
}

// A disturbance confined to one window of five moves neither the median
// nor the tail, where the pooled p90 would read the disturbed value.
func TestSamplesWindowsRejectOneDisturbedWindow(t *testing.T) {
	s := samples{name: "x"}
	for i := 0; i < 500; i++ {
		d := time.Millisecond
		if i >= 200 && i < 300 {
			d = 100 * time.Millisecond
		}
		s.add(d)
	}
	if v, note := s.tail(90); v != 1 || note != "x: 500 samples, p90 over 5 windows" {
		t.Errorf("tail = %v (%q), want 1 over 5 windows", v, note)
	}
	if v := s.p50(); v != 1 {
		t.Errorf("p50 = %v, want 1", v)
	}
	pooled := append([]float64(nil), s.ms...)
	sort.Float64s(pooled)
	if p90 := percentile(pooled, 90); p90 != 100 {
		t.Errorf("pooled p90 = %v, want 100", p90)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"latency_ms", "trace.scan_ms", "p-90", "9lives", "A.b_c-d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := string(make([]byte, 65))
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", "é", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "MiB", "count"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "seconds-per-op-xx", "µs"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}
