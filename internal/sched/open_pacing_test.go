package sched

import (
	"testing"
	"time"
)

// TestSpareCoresDecision pins the rule that picks RunOpen's waiting
// strategy: poll only when every producer and worker can hold a P.
func TestSpareCoresDecision(t *testing.T) {
	for _, tc := range []struct {
		procs, producers, workers int
		want                      bool
	}{
		{1, 1, 1, false},
		{2, 1, 1, true},
		{2, 1, 2, false},
		{2, 2, 1, false},
		{3, 1, 2, true},
		{4, 2, 2, true},
		{4, 3, 2, false},
		{8, 1, 1, true},
		{16, 4, 12, true},
		{16, 4, 13, false},
	} {
		if got := spareCores(tc.procs, tc.producers, tc.workers); got != tc.want {
			t.Errorf("spareCores(procs=%d, producers=%d, workers=%d) = %v, want %v",
				tc.procs, tc.producers, tc.workers, got, tc.want)
		}
	}
}

// TestPacerNeverEarly: on both paths, and whatever its slack, wait returns
// only once the target has elapsed since start.
func TestPacerNeverEarly(t *testing.T) {
	for _, pc := range []pacer{
		{poll: false},
		{poll: true},
		{poll: true, slack: 200 * time.Microsecond},
		{poll: true, slack: wakeSlack},
	} {
		pc.start = time.Now()
		var target time.Duration
		for _, gap := range []time.Duration{0, time.Microsecond, 50 * time.Microsecond, 2 * time.Millisecond, 0} {
			target += gap
			pc.wait(target)
			if el := time.Since(pc.start); el < target {
				t.Fatalf("pacer %+v: returned at %v before target %v", pc, el, target)
			}
		}
	}
}

// TestLatenessAccumulates: add and merge keep the sum, the maximum and the
// count of lags over a millisecond.
func TestLatenessAccumulates(t *testing.T) {
	var a, b Lateness
	a.add(300 * time.Microsecond)
	a.add(2 * time.Millisecond)
	b.add(time.Millisecond) // exactly 1 ms is not over
	b.add(5 * time.Millisecond)
	a.merge(b)
	want := Lateness{Total: 8300 * time.Microsecond, Max: 5 * time.Millisecond, Over1ms: 2}
	if a != want {
		t.Fatalf("merged lateness %+v, want %+v", a, want)
	}
}
