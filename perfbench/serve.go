package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/sched"
	"powerchoice/internal/workload"
	"powerchoice/internal/xrand"
)

const (
	// servePreset is the arrival/service shape: a two-phase MMPP whose
	// burst phase runs at 1.8× the average rate, four uniform classes.
	servePreset = "bursty"
	// serveRate is the fixed average load in jobs/s. Its burst phase, at
	// 450k jobs/s, sits below one worker's knee on a 2-vCPU Xeon VM
	// (about 0.55–0.6M jobs/s), where the producer still keeps pace.
	serveRate = 250_000
	// servePassS is the span of arrivals one replay of the trace covers;
	// the measured phase replays it as often as the budget allows.
	servePassS = 2.0
	// serveMainShare is the share of the budget spent at serveRate; the
	// rest climbs serveLadder.
	serveMainShare = 0.6
	// serveLimitUs is the latency limit on the urgent class's p99 sojourn
	// that a ladder rung must meet. It sits above the 3–8 ms floor that
	// generator lag puts under every rate on a 2-vCPU Xeon VM, so the
	// ladder finds where the backlog starts to build.
	serveLimitUs = 10_000
	// serveKeptUp is the share of the offered rate a ladder rung must
	// serve: the trace's span over the time the run took to serve it.
	serveKeptUp = 0.95
	// serveWindow is the span of due times whose sojourns form one window
	// of latency_p99_us.
	serveWindow = int64(100 * time.Millisecond)
	// serveSpans samples spans on every serveSpans-th pop (traced runs).
	serveSpans = 256
	// serveTraceTag derives the trace's seed.
	serveTraceTag = "perfbench.serve.trace"
)

// serveLadder is the fixed ladder of average rates, in jobs/s, that
// max_rate_kjobs_s climbs.
var serveLadder = []float64{150e3, 300e3, 450e3, 600e3}

// serveTrace compiles the preset at the given rate into n jobs.
func serveTrace(seed uint64, n int, rate float64) (*workload.Trace, error) {
	spec, err := workload.Preset(servePreset)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(spec, seed, n, rate)
	if err != nil {
		return nil, err
	}
	// Pin the realized average rate: an MMPP draw over a few hundred phases
	// strays by several percent from its nominal rate, which would move
	// every figure with the seed.
	span := float64(tr.ArrivalNs[n-1]) / 1e9
	if n < 2 || span <= 0 {
		return tr, nil
	}
	return tr.ScaleRate(rate * span / float64(n-1))
}

// spinSink keeps the service loop live.
var spinSink atomic.Uint64

// spin burns `units` steps of an LCG: the job's service time, the same loop
// jobs.SpinNsPerUnit calibrates.
func spin(units uint32, seed uint64) {
	x := seed
	for i := uint32(0); i < units; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 {
		spinSink.Store(x)
	}
}

// passResult is one open-loop replay of a trace.
type passResult struct {
	jobs     int
	elapsedS float64
	// Per-job figures in µs, in due order: sojourn from the due time (all
	// jobs, and the urgent class 0), the generator's lateness, and the wait
	// from injection to the start of service.
	sojournUs, urgentUs, lateUs, waitUs []float64
	// windowTails is the tail sojourn of each serveWindow of due times.
	windowTails         []float64
	inversions, badJobs int64
	// qlenMean is the mean pending count; keptUp the trace's span over the
	// time the replay took.
	qlenMean, keptUp float64
	views            []*mqView
}

// servePass replays the trace through sched.RunOpen with one producer and
// one worker. Each job is timed from its due time, the trace's arrival
// offset from the start of the run, so a stalled generator shows as
// latency; the generator's own lateness is reported separately.
func servePass(tr *workload.Trace, seed uint64, probe probeCfg, firstWorker int) (*passResult, error) {
	n := tr.Jobs()
	mq, err := core.New[int32](core.WithQueues(paperQueues), core.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	q := newMQQueue(mq, probe, firstWorker)
	injectAt := make([]int64, n)
	startAt := make([]int64, n)
	doneAt := make([]int64, n)
	served := make([]uint8, n)
	classPending := make([]atomic.Int64, tr.NumClasses())
	var inversions int64
	gen := func(_, seq int) sched.Item[int32] {
		injectAt[seq] = now()
		classPending[tr.Class[seq]].Add(1)
		return sched.Item[int32]{Key: tr.Key(seq), Value: int32(seq)}
	}
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		startAt[id] = now()
		c := tr.Class[id]
		classPending[c].Add(-1)
		for hc := uint8(0); hc < c; hc++ {
			if classPending[hc].Load() > 0 {
				inversions++
				break
			}
		}
		spin(tr.Service[id], uint64(id))
		served[id]++
		doneAt[id] = now()
		return true
	}
	cfg := sched.OpenConfig{
		Workers:     1,
		Producers:   1,
		Arrivals:    func(p int) sched.ArrivalProcess { return tr.Arrivals(p, 1) },
		Strided:     true,
		Jobs:        int64(n),
		SampleEvery: time.Millisecond,
		Seed:        seed,
	}
	t0 := now()
	st := sched.RunOpen[int32](q, cfg, gen, task)
	end := now()
	pr := &passResult{
		jobs:       n,
		elapsedS:   float64(end-t0) / 1e9,
		inversions: inversions,
		keptUp:     float64(tr.ArrivalNs[n-1]) / float64(end-t0),
		sojournUs:  make([]float64, 0, n),
		lateUs:     make([]float64, 0, n),
		waitUs:     make([]float64, 0, n),
		views:      q.views,
	}
	var window []float64
	closeWindow := func() {
		if p, ok := tailPercentile(len(window), 99); ok {
			sort.Float64s(window)
			pr.windowTails = append(pr.windowTails, percentileSorted(window, p))
		}
		window = window[:0]
	}
	for i := 0; i < n; i++ {
		if i > 0 && tr.ArrivalNs[i]/serveWindow != tr.ArrivalNs[i-1]/serveWindow {
			closeWindow()
		}
		if served[i] != 1 {
			pr.badJobs++
			continue
		}
		due := t0 + tr.ArrivalNs[i]
		s := float64(doneAt[i]-due) / 1e3
		pr.sojournUs = append(pr.sojournUs, s)
		window = append(window, s)
		if tr.Class[i] == 0 {
			pr.urgentUs = append(pr.urgentUs, s)
		}
		pr.lateUs = append(pr.lateUs, float64(injectAt[i]-due)/1e3)
		pr.waitUs = append(pr.waitUs, float64(startAt[i]-injectAt[i])/1e3)
	}
	closeWindow()
	pr.badJobs = max(pr.badJobs, int64(n)-st.Injected)
	for _, v := range st.QLen {
		pr.qlenMean += float64(v) / float64(len(st.QLen))
	}
	for _, v := range pr.views {
		v.finish()
	}
	return pr, nil
}

func runServe(e *env, r *result) error {
	passJobs := int(serveRate * servePassS)
	if e.smoke {
		passJobs = 5000
	}
	traceSeed := xrand.Tag(e.seed, serveTraceTag)
	queueSeed := xrand.Tag(e.seed, "perfbench.serve.queue")
	var tr *workload.Trace
	err := timeSetups(r, func() { tr = nil }, func() (err error) {
		tr, err = serveTrace(traceSeed, passJobs, serveRate)
		return err
	})
	if err != nil {
		return err
	}
	r.details["rate_jobs_s"] = serveRate

	// The measured phase replays the trace until its budget is spent;
	// traced runs alternate untraced and traced replays, for the tracing
	// overhead, and skip the ladder.
	mainBudget := e.seconds * serveMainShare
	if e.trace {
		mainBudget = e.seconds
	}
	var attempted, bad int64
	// Pooled figures of the untraced replays (plain*) and the traced ones.
	var sojourn, urgent, late, tails, tput, plainP50 []float64
	var tracedLate, tracedWait, tracedP50 []float64
	var inversions int64
	var qlen, tracedQlen float64
	var stats []core.HandleStats
	var empty int64
	replays, tracedReplays := 0, 0
	n0 := sampleNoise()
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin).Seconds() < mainBudget; i++ {
		tracedPass := e.trace && i%2 == 1
		probe := probeOff
		if tracedPass {
			probe.spanStride = serveSpans
		}
		// Start each replay from a collected heap, so the collector does
		// not run during one because of the garbage of the last.
		runtime.GC()
		pr, err := servePass(tr, queueSeed, probe, 2*i)
		if err != nil {
			return err
		}
		attempted += int64(pr.jobs)
		bad += pr.badJobs
		if tracedPass {
			tracedReplays++
			tracedLate = append(tracedLate, pr.lateUs...)
			tracedWait = append(tracedWait, pr.waitUs...)
			tracedP50 = append(tracedP50, median(pr.sojournUs))
			tracedQlen += pr.qlenMean
			for _, v := range pr.views {
				stats = append(stats, v.h.Stats())
				empty += v.empty
				r.spans = append(r.spans, &v.log)
			}
			continue
		}
		replays++
		plainP50 = append(plainP50, median(pr.sojournUs))
		sojourn = append(sojourn, pr.sojournUs...)
		urgent = append(urgent, pr.urgentUs...)
		late = append(late, pr.lateUs...)
		tails = append(tails, pr.windowTails...)
		tput = append(tput, float64(pr.jobs)/pr.elapsedS/1e6)
		inversions += pr.inversions
		qlen += pr.qlenMean
	}
	r.noise = noiseBetween(n0, sampleNoise())
	r.endToEnd.set("rss_mb", settledRSSMB(), "MB")
	r.details["replays"] = replays + tracedReplays
	soj, urg := summarize(sojourn), summarize(urgent)
	r.details["sojourn_us"] = soj
	r.details["urgent_us"] = urg
	r.details["gen_late_us"] = summarize(late)
	r.details["qlen_mean"] = qlen / float64(replays)
	if e.trace {
		r.checkUnits("served_exactly_once", attempted, bad, "every trace job served once per replay")
		tracedQlen /= float64(tracedReplays)
		r.occupancy = int(tracedQlen)
		setSpanLayers(r, summarizeSpans(r.spans))
		setHandleLayers(r, stats)
		l := summarize(tracedLate)
		r.layers.set("sched.empty_pops", float64(empty)/float64(tracedReplays), "count")
		r.layers.set("sched.stale", 0, "count")
		r.layers.set("sched.qlen_mean", tracedQlen, "count")
		r.layers.set("sched.gen_late_p50_us", l.P50, "us")
		r.layers.set("sched.gen_late_p99_us", l.Tail, "us")
		r.layers.set("sched.wait_us_p99", summarize(tracedWait).Tail, "us")
		// Throughput is pinned by the offered rate, so the overhead is read
		// off the median sojourn instead.
		p, t := median(plainP50), median(tracedP50)
		r.layers.set("trace_overhead_pct", 100*(t-p)/p, "%")
		return nil
	}
	r.endToEnd.set("throughput_mops", median(tput), "Mops/s")
	r.endToEnd.set("latency_p50_us", soj.P50, "us")
	// A pooled p99 rides on a replay's few worst generator stalls; the
	// median window's p99 is the tail a typical stretch shows, and repeats
	// from run to run. sojourn_p99_us keeps the pooled figure.
	r.endToEnd.set("latency_p99_us", median(tails), "us")
	r.extra.set("sojourn_p50_us", soj.P50, "us")
	r.extra.set("sojourn_p99_us", soj.Tail, "us")
	r.extra.set("urgent_p99_us", urg.Tail, "us")
	r.extra.set("inversion_ratio", float64(inversions)/float64(len(sojourn)), "ratio")

	// The ladder: the highest rate at which the urgent class's p99 stays
	// within the limit and the worker keeps up with the offered rate.
	rungS := e.seconds * (1 - serveMainShare) / float64(len(serveLadder))
	maxRate := 0.0
	var rungs []map[string]any
	for i, rate := range serveLadder {
		rt, err := serveTrace(traceSeed+uint64(i)+1, max(int(rate*rungS), 1000), rate)
		if err != nil {
			return err
		}
		runtime.GC()
		pr, err := servePass(rt, queueSeed, probeOff, 0)
		if err != nil {
			return err
		}
		attempted += int64(pr.jobs)
		bad += pr.badJobs
		u := summarize(pr.urgentUs)
		ok := u.Tail <= serveLimitUs && pr.keptUp >= serveKeptUp
		rungs = append(rungs, map[string]any{"rate_jobs_s": rate, "jobs": pr.jobs, "urgent_p99_us": u.Tail,
			"sojourn_p50_us": median(pr.sojournUs), "kept_up": pr.keptUp, "ok": ok})
		if ok {
			maxRate = rate
		}
	}
	r.extra.set("max_rate_kjobs_s", maxRate/1e3, "kjobs/s")
	r.details["ladder"] = rungs
	r.details["latency_limit_us"] = serveLimitUs
	r.checkUnits("served_exactly_once", attempted, bad,
		fmt.Sprintf("every trace job served once; %d jobs over %d replays", attempted, replays+len(rungs)))
	return nil
}
