package main

import (
	"testing"
	"time"
)

// sleepOps is n ops due every gap, each taking work.
func sleepOps(n int, gap, work time.Duration) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * gap, run: func() { time.Sleep(work) }}
	}
	return ops
}

// With one slot the ops queue: op k waits for the k before it, so it is
// sent 15k ms late and its latency, counted from its due time, carries
// that wait: 20 + 15k ms. Timers only ever fire late, so the expected
// values are lower bounds; the upper bounds allow for a loaded machine.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	tim := openLoop(time.Now(), sleepOps(5, 5*ms, 20*ms), 1)
	for k, got := range tim {
		wantLat := time.Duration(20+15*k) * ms
		wantLate := time.Duration(15*k) * ms
		if got.latency < wantLat || got.latency > wantLat+50*ms {
			t.Errorf("op %d latency %v, want about %v", k, got.latency, wantLat)
		}
		if got.lateness < wantLate-ms || got.lateness > wantLate+50*ms {
			t.Errorf("op %d lateness %v, want about %v", k, got.lateness, wantLate)
		}
		if got.latency < got.lateness+20*ms {
			t.Errorf("op %d latency %v shorter than lateness %v plus its work", k, got.latency, got.lateness)
		}
	}
}

// With slots to spare nothing queues: latency is the work alone and the
// generator keeps to its schedule.
func TestOpenLoopOnSchedule(t *testing.T) {
	const ms = time.Millisecond
	start := time.Now()
	tim := openLoop(start, sleepOps(5, 5*ms, 20*ms), 8)
	for k, got := range tim {
		if got.latency < 20*ms || got.latency > 70*ms {
			t.Errorf("op %d latency %v, want about 20ms", k, got.latency)
		}
		if got.lateness < 0 || got.lateness > 50*ms {
			t.Errorf("op %d lateness %v, want about 0", k, got.lateness)
		}
	}
	if el := time.Since(start); el < 40*ms {
		t.Errorf("loop returned after %v, before its last op could finish", el)
	}
}
