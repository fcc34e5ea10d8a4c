package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest whole percentile p that leaves at
// least ten of n samples strictly above the nearest-rank p-th percentile,
// or -1 when n is too small for any. A p90 therefore needs 100 samples,
// a p99 1000.
func tailPercentile(n int) int {
	if n <= 10 {
		return -1
	}
	return 100 * (n - 10) / n
}

// percentile returns the nearest-rank p-th percentile of sorted (p in
// [0, 100]); the median of an even count is its lower middle sample.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(float64(p) * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samples collects one timing series in milliseconds, in the order the
// operations were due.
type samples struct {
	name string
	ms   []float64
}

func (s *samples) add(d time.Duration) { s.ms = append(s.ms, float64(d)/float64(time.Millisecond)) }

// Minimum samples per window: a median needs a few, a p90 needs 100 so
// that ten samples lie beyond it.
const (
	minPerMedianWindow = 20
	minPerTailWindow   = 100
)

// windowed cuts the series into as many consecutive windows as keep at
// least minPer samples each, applies stat to each, and returns the
// median of the window values. A disturbance that hits less than half
// of a run's windows therefore does not move the result. With fewer
// than three windows the median would only pick the lower of two, so
// the series is taken whole.
func (s *samples) windowed(minPer int, stat func(sorted []float64) float64) (float64, int) {
	w := len(s.ms) / minPer
	if w < 3 {
		w = 1
	}
	vals := make([]float64, w)
	for i := range vals {
		win := append([]float64(nil), s.ms[i*len(s.ms)/w:(i+1)*len(s.ms)/w]...)
		sort.Float64s(win)
		vals[i] = stat(win)
	}
	return median(vals), w
}

// p50 is the median of the window medians.
func (s *samples) p50() float64 {
	v, _ := s.windowed(minPerMedianWindow, func(w []float64) float64 { return percentile(w, 50) })
	return v
}

// tail is the median over windows of the requested high percentile. With
// fewer than 100 samples there is one window and the percentile drops to
// the highest one the count supports; the note names what was taken.
func (s *samples) tail(want int) (float64, string) {
	p := tailPercentile(len(s.ms))
	if p < 0 {
		p = 50
	}
	p = min(p, want)
	v, w := s.windowed(minPerTailWindow, func(win []float64) float64 { return percentile(win, p) })
	return v, fmt.Sprintf("%s: %d samples, p%d over %d windows", s.name, len(s.ms), p, w)
}

// median of a float series (nearest rank).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// validName reports whether a metric name is 1-64 letters, digits, '_',
// '.' and '-', starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether a unit is 1-16 letters, digits, '_', '/',
// '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
