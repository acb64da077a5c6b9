package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop runner: the wall clock in
// runs, a fake in tests. Times are offsets from the schedule's start.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// opTiming is when one scheduled operation was due, sent and answered.
type opTiming struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stall that delays later
// sends counts against every operation it delayed, not just the one
// that stalled; so does a sleep timer that wakes late, which a user
// of the system would see the same way.
func (t opTiming) latency() time.Duration { return t.done - t.due }

// service is the time the operation itself took once sent.
func (t opTiming) service() time.Duration { return t.done - t.sent }

// late is how far behind its schedule the generator sent the operation.
func (t opTiming) late() time.Duration { return t.sent - t.due }

// runOpenLoop issues the operations in order from a pool of workers
// (client connections): operation i goes to the first free worker, no
// earlier than due[i] and not before every operation in after[i] has
// completed. An operation that finds every worker busy, or waits for
// another, waits as part of its latency. exec runs operation i on
// worker w; runOpenLoop returns once every operation has completed.
// after may be nil: no operation waits for another.
func runOpenLoop(clk clock, due []time.Duration, after [][]int, workers int, exec func(w, i int)) []opTiming {
	out := make([]opTiming, len(due))
	done := make([]chan struct{}, len(due))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				if after != nil {
					for _, j := range after[i] {
						<-done[j]
					}
				}
				sent := clk.now()
				exec(w, i)
				out[i] = opTiming{due: due[i], sent: sent, done: clk.now()}
				close(done[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// subDeps is after for operations from..to-1, numbered from 0: the
// part of a schedule runOpenLoop is given. A dependency before from is
// dropped; it has completed before the part runs.
func subDeps(after [][]int, from, to int) [][]int {
	if after == nil {
		return nil
	}
	out := make([][]int, to-from)
	for i := range out {
		for _, j := range after[from+i] {
			if j >= from {
				out[i] = append(out[i], j-from)
			}
		}
	}
	return out
}

// evenSchedule spaces n operations at the given rate.
func evenSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
