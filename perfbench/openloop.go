package main

import (
	"sync"
	"time"
)

// op is one request of an open-loop schedule: due is its offset from
// the loop's start, run performs it.
type op struct {
	due time.Duration
	run func()
}

// timing is what the loop measured for one op. Latency runs from the
// op's due time to its completion, so a stall also charges the wait it
// imposes on the requests queued behind it; lateness is how long after
// its due time the generator actually sent it.
type timing struct {
	latency, lateness time.Duration
}

// openLoop sends ops on their schedule, whatever the system's progress,
// with at most slots in flight; ops must be sorted by due. An op that
// finds every slot busy waits for one, and the wait counts in both its
// latency and its lateness. openLoop returns once every op has finished.
func openLoop(start time.Time, ops []op, slots int) []timing {
	out := make([]timing, len(ops))
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i, o := range ops {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			o.run()
			done := time.Now()
			<-sem
			out[i] = timing{latency: done.Sub(due), lateness: sent.Sub(due)}
		}(i, o)
	}
	wg.Wait()
	return out
}
