package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when an operation says it took
// time or the runner sleeps until a due time.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Duration
	overshoot time.Duration // how late every sleep wakes
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t + c.overshoot
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// With one worker, an operation that stalls delays every later
// operation; latency is timed from the due time, so the delay counts
// against each of them, and lateness shows the generator fell behind.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	due := evenSchedule(4, 100) // due at 0, 10, 20, 30 ms
	service := []time.Duration{35 * ms, 2 * ms, 2 * ms, 2 * ms}
	tm := runOpenLoop(clk, due, nil, 1, func(_, i int) { clk.advance(service[i]) })

	want := []struct{ sent, done, latency, late time.Duration }{
		{0, 35 * ms, 35 * ms, 0},             // the stall itself
		{35 * ms, 37 * ms, 27 * ms, 25 * ms}, // due at 10, waited 25
		{37 * ms, 39 * ms, 19 * ms, 17 * ms}, // due at 20, waited 17
		{39 * ms, 41 * ms, 11 * ms, 9 * ms},  // due at 30, waited 9
	}
	for i, w := range want {
		got := tm[i]
		if got.sent != w.sent || got.done != w.done || got.latency() != w.latency || got.late() != w.late {
			t.Errorf("op %d: sent %v done %v latency %v late %v; want %v %v %v %v",
				i, got.sent, got.done, got.latency(), got.late(), w.sent, w.done, w.latency, w.late)
		}
		if got.service() != service[i] {
			t.Errorf("op %d: service %v, want %v", i, got.service(), service[i])
		}
	}
}

// A sleep timer that wakes late makes the generator late, and the
// operation's latency, timed from its due time, includes the
// overshoot just as it includes a wait behind a stalled operation.
func TestOpenLoopCountsTimerOvershoot(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{overshoot: ms}
	due := evenSchedule(3, 100) // due at 0, 10, 20 ms
	service := []time.Duration{2 * ms, 15 * ms, 2 * ms}
	tm := runOpenLoop(clk, due, nil, 1, func(_, i int) { clk.advance(service[i]) })
	want := []struct{ latency, late time.Duration }{
		{2 * ms, 0},       // sent at once: no sleep
		{16 * ms, 1 * ms}, // woke 1 ms late from an idle sleep
		{8 * ms, 6 * ms},  // due at 20, held up by op 1 until 26
	}
	for i, w := range want {
		if got := tm[i]; got.latency() != w.latency || got.late() != w.late {
			t.Errorf("op %d: latency %v late %v; want %v %v", i, got.latency(), got.late(), w.latency, w.late)
		}
	}
}

// An operation that finishes early does not pull the next one ahead of
// its due time.
func TestOpenLoopWaitsForDue(t *testing.T) {
	clk := &fakeClock{}
	due := evenSchedule(3, 10) // due at 0, 100, 200 ms
	tm := runOpenLoop(clk, due, nil, 1, func(int, int) { clk.advance(time.Millisecond) })
	for i, got := range tm {
		if got.sent != due[i] || got.late() != 0 || got.latency() != time.Millisecond {
			t.Errorf("op %d: sent %v (due %v), latency %v", i, got.sent, due[i], got.latency())
		}
	}
}

// With two workers, an operation stalled on one does not hold up the
// next, which runs on the other; an operation that depends on the
// stalled one waits for it.
func TestOpenLoopPoolAndDependencies(t *testing.T) {
	clk := &fakeClock{}
	release := make(chan struct{})
	ran := make(chan int, 3)
	after := [][]int{nil, nil, {0}}
	runOpenLoop(clk, make([]time.Duration, 3), after, 2, func(_, i int) {
		if i == 0 {
			<-release // op 0 stalls until op 1 has run
		}
		ran <- i
		if i == 1 {
			close(release)
		}
	})
	close(ran)
	var order []int
	for i := range ran {
		order = append(order, i)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Errorf("ran in order %v, want [1 0 2]: op 1 passes stalled op 0, op 2 waits for op 0", order)
	}
}

// An operation that depends on several waits for all of them: here op
// 2 depends on ops 0 and 1, and op 1, the newer, completes first while
// op 0 is still running on the other worker.
func TestOpenLoopWaitsForEveryDependency(t *testing.T) {
	clk := &fakeClock{}
	var mu sync.Mutex
	zeroDone := false
	started2 := make(chan struct{})
	early := false
	runOpenLoop(clk, make([]time.Duration, 3), [][]int{nil, nil, {0, 1}}, 2, func(_, i int) {
		switch i {
		case 0:
			// Run until op 2 starts (which it must not) or long enough
			// for op 1 to have completed.
			select {
			case <-started2:
				early = true
			case <-time.After(50 * time.Millisecond):
			}
			mu.Lock()
			zeroDone = true
			mu.Unlock()
		case 2:
			close(started2)
			mu.Lock()
			if !zeroDone {
				early = true
			}
			mu.Unlock()
		}
	})
	if early {
		t.Error("op 2 ran before op 0, one of its dependencies, completed")
	}
}

func TestEvenSchedule(t *testing.T) {
	due := evenSchedule(5, 250)
	for i := range due {
		if want := time.Duration(i) * 4 * time.Millisecond; due[i] != want {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
}

func TestSubDeps(t *testing.T) {
	after := [][]int{nil, {0}, {0, 1}, {2}, {1, 3}}
	got := subDeps(after, 2, 5)
	want := [][]int{nil, {0}, {1}}
	if len(got) != len(want) {
		t.Fatalf("subDeps = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && got[i][0] != want[i][0]) {
			t.Errorf("subDeps = %v, want %v", got, want)
		}
	}
	if subDeps(nil, 2, 5) != nil {
		t.Error("subDeps of no dependencies is not nil")
	}
}
