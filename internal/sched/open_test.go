package sched_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// TestRunOpenServesEveryInjectedJob: the open-system run must serve every
// injected item exactly once on every implementation, across producer and
// batch configurations — the exact-accounting acceptance criterion. The
// rate is set high enough that pacing never dominates the test's runtime.
func TestRunOpenServesEveryInjectedJob(t *testing.T) {
	jobs := int64(20000)
	if testing.Short() {
		jobs = 4000
	}
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, cfg := range []sched.OpenConfig{
				{Workers: 2, Producers: 1, Jobs: jobs, Rate: 4e6, Seed: 3},
				{Workers: 4, Producers: 3, Jobs: jobs, Rate: 4e6, Seed: 3},
				{Workers: 4, Producers: 2, Jobs: jobs, Rate: 4e6, Batch: 8, Seed: 3},
				{Workers: 2, Producers: 2, Jobs: jobs, Seed: 3}, // unpaced stress
			} {
				q, err := pqadapt.New(impl, 19)
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]atomic.Int32, jobs)
				gen := func(_, seq int) sched.Item[int32] {
					// seq is the dense global injection sequence: it must
					// cover exactly 0..jobs-1 across all producers.
					id := int32(seq)
					return sched.Item[int32]{Key: scrambleKey(id), Value: id}
				}
				task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
					seen[id].Add(1)
					return true
				}
				st := sched.RunOpen[int32](q, cfg, gen, task)
				if st.Injected != jobs {
					t.Fatalf("cfg %+v: injected %d of %d", cfg, st.Injected, jobs)
				}
				if st.Processed != jobs || st.Stale != 0 {
					t.Fatalf("cfg %+v: processed %d stale %d, want %d / 0",
						cfg, st.Processed, st.Stale, jobs)
				}
				var served int64
				for i := range seen {
					if n := seen[i].Load(); n > 1 {
						t.Fatalf("cfg %+v: item %d served %d times", cfg, i, n)
					} else if n == 1 {
						served++
					}
				}
				if served != jobs {
					t.Fatalf("cfg %+v: served %d distinct of %d", cfg, served, jobs)
				}
				if cfg.Batch > 1 && st.BufferedPops == 0 {
					t.Errorf("cfg %+v: batched run reported no buffered pops", cfg)
				}
				if _, _, ok := q.DeleteMin(); ok {
					t.Fatalf("cfg %+v: queue not empty after drain-to-zero epilogue", cfg)
				}
			}
		})
	}
}

// TestRunOpenTaskPushes: successors pushed by tasks (beyond the injected
// stream) must also be drained before the run returns — the epilogue drains
// the pending counter, not just the injected quota.
func TestRunOpenTaskPushes(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplOneBeta75, 23)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 2000
	var followUps atomic.Int64
	gen := func(p, i int) sched.Item[int32] {
		return sched.Item[int32]{Key: scrambleKey(int32(i)), Value: int32(i)}
	}
	task := func(_ uint64, id int32, push func(uint64, int32)) bool {
		// Every injected item (id >= 0) spawns one follow-up (encoded < 0).
		if id >= 0 {
			push(scrambleKey(id), -id-1)
		} else {
			followUps.Add(1)
		}
		return true
	}
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 3, Producers: 1, Jobs: jobs, Rate: 2e6, Batch: 4, Seed: 5,
	}, gen, task)
	if st.Injected != jobs || st.Pushed != jobs || followUps.Load() != jobs {
		t.Fatalf("injected %d pushed %d followUps %d, want %d each",
			st.Injected, st.Pushed, followUps.Load(), jobs)
	}
	if st.Processed != 2*jobs {
		t.Fatalf("processed %d, want %d", st.Processed, 2*jobs)
	}
}

// TestRunOpenDeadlineCutsInjection: a deadline shorter than the injection
// schedule stops producers early; everything injected by then is still
// served exactly (Injected == Processed), just fewer than the quota.
func TestRunOpenDeadlineCutsInjection(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 29)
	if err != nil {
		t.Fatal(err)
	}
	var generated atomic.Int64
	gen := func(p, i int) sched.Item[int32] {
		n := generated.Add(1)
		return sched.Item[int32]{Key: uint64(n), Value: int32(n)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	// 1e9 jobs at 50k/s would take hours; the 50ms deadline must cut it.
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 2, Producers: 2, Jobs: 1 << 30, Rate: 50000,
		Deadline: 50 * time.Millisecond, Seed: 7,
	}, gen, task)
	if st.Injected >= 1<<30 || st.Injected == 0 {
		t.Fatalf("deadline did not bound injection: %d", st.Injected)
	}
	if st.Processed != st.Injected {
		t.Fatalf("processed %d != injected %d: jobs lost at deadline shutdown",
			st.Processed, st.Injected)
	}
}

// TestRunOpenDeadlineNotOvershotAtLowRate: at a low rate the next scheduled
// arrival can lie far past the deadline; producers must exit without
// sleeping toward it, so the run returns promptly instead of overshooting
// the deadline by an unbounded interarrival gap.
func TestRunOpenDeadlineNotOvershotAtLowRate(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 59)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(p, i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	start := time.Now()
	// Mean interarrival gap 500ms vs a 30ms deadline: with high probability
	// not even the first arrival lands, and the old post-sleep-only check
	// would block ~500ms before noticing the deadline.
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 1, Producers: 1, Jobs: 100, Rate: 2,
		Deadline: 30 * time.Millisecond, Seed: 19,
	}, gen, task)
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("low-rate deadline run took %v, deadline overshot", elapsed)
	}
	if st.Processed != st.Injected {
		t.Errorf("processed %d != injected %d", st.Processed, st.Injected)
	}
}

// TestRunOpenSamplesQueueLength: SampleEvery > 0 yields a non-empty
// timeseries of non-negative pending counts for a run long enough to tick.
func TestRunOpenSamplesQueueLength(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 31)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(p, i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 1, Producers: 1, Jobs: 3000, Rate: 100000,
		SampleEvery: time.Millisecond, Seed: 11,
	}, gen, task)
	// 3000 jobs at 100k/s is a ≥30ms run: at least a handful of 1ms ticks.
	if len(st.QLen) < 3 {
		t.Fatalf("queue-length timeseries has %d samples", len(st.QLen))
	}
	for i, v := range st.QLen {
		if v < 0 {
			t.Fatalf("sample %d negative: %d", i, v)
		}
	}
}

// TestRunOpenPacingRoughlyMatchesRate: over a run long enough to average
// out, the achieved injection rate must be within a factor of two of the
// configured Poisson rate (scheduling jitter allowed; systematic error not).
func TestRunOpenPacingRoughlyMatchesRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock pacing; exactness is covered by the other RunOpen tests")
	}
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 37)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(p, i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	const rate = 20000.0
	const jobs = 2000
	start := time.Now()
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 1, Producers: 2, Jobs: jobs, Rate: rate, Seed: 13,
	}, gen, task)
	elapsed := time.Since(start).Seconds()
	if st.Injected != jobs {
		t.Fatalf("injected %d of %d", st.Injected, jobs)
	}
	achieved := float64(jobs) / elapsed
	if achieved > 2*rate || achieved < rate/2 {
		t.Errorf("achieved rate %.0f/s, configured %.0f/s", achieved, rate)
	}
}

// runOpenExactlyOnce runs cfg on a fresh MultiQueue and fails the test
// unless every one of cfg.Jobs items was injected and served exactly once.
func runOpenExactlyOnce(t *testing.T, cfg sched.OpenConfig) sched.OpenStats {
	t.Helper()
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 61)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]atomic.Int32, cfg.Jobs)
	gen := func(_, seq int) sched.Item[int32] {
		return sched.Item[int32]{Key: scrambleKey(int32(seq)), Value: int32(seq)}
	}
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		seen[id].Add(1)
		return true
	}
	st := sched.RunOpen[int32](q, cfg, gen, task)
	if st.Injected != cfg.Jobs || st.Processed != cfg.Jobs {
		t.Fatalf("cfg %+v: injected %d processed %d, want %d",
			cfg, st.Injected, st.Processed, cfg.Jobs)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("cfg %+v: item %d served %d times", cfg, i, n)
		}
	}
	return st
}

// TestRunOpenYieldPathAtOneProc: with one P, one producer and one worker
// cannot each hold a core, so RunOpen takes the sleep-and-yield path; it
// must still serve every job exactly once, paced and unpaced.
func TestRunOpenYieldPathAtOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, cfg := range []sched.OpenConfig{
		{Workers: 1, Producers: 1, Jobs: 3000, Rate: 1e6, Seed: 5},
		{Workers: 1, Producers: 1, Jobs: 3000, Rate: 1e6, Batch: 4, Seed: 5},
		{Workers: 1, Producers: 1, Jobs: 3000, Seed: 5},
	} {
		runOpenExactlyOnce(t, cfg)
	}
}

// TestRunOpenSpareCoreStress serves a long paced run with one producer and
// one worker — the spare-core polling path whenever GOMAXPROCS ≥ 2, the
// yielding path at 1. It asserts exact-once delivery only; the generator
// lateness is logged, never gated, because it depends on the host.
func TestRunOpenSpareCoreStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress: a long paced run")
	}
	jobs := int64(100_000)
	if raceEnabled {
		jobs = 20_000
	}
	cfg := sched.OpenConfig{
		Workers: 1, Producers: 1, Jobs: jobs, Rate: 250_000,
		SampleEvery: time.Millisecond, Seed: 17,
	}
	start := time.Now()
	st := runOpenExactlyOnce(t, cfg)
	t.Logf("GOMAXPROCS=%d: %d jobs in %v, lateness mean %v max %v, %d over 1ms, %d queue-length samples, %d empty pops",
		runtime.GOMAXPROCS(0), jobs, time.Since(start).Round(time.Millisecond),
		st.Late.Total/time.Duration(st.Injected), st.Late.Max, st.Late.Over1ms,
		len(st.QLen), st.EmptyPops)
}
