package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/jobs"
	"powerchoice/internal/pqueue"
	"powerchoice/internal/xrand"
)

// paperQueues is the queue count n every workload's MultiQueue uses: the
// paper's fixed topology (§5), so figures compare across hosts.
const paperQueues = 8

// Each workload builds its inputs at least minSetups times and until
// setupBudget seconds went into it (at most maxSetups); setup_s is the
// median build.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 0.5
)

// timeSetups times repeated builds. drop releases the previous build's
// result so the collection before each build frees it.
func timeSetups(r *result, drop func(), build func() error) error {
	var times []float64
	var spent float64
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		drop()
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		times = append(times, d)
		spent += d
	}
	r.endToEnd.set("setup_s", median(times), "s")
	r.details["setup_s"] = summarize(times)
	return nil
}

// rankSizes: the gated rank pass, and the smaller concurrent diagnostic.
var (
	rankGated = rankSize{queues: paperQueues, prefill: 1 << 16, ops: 1 << 20}
	rankDiag  = rankSize{queues: paperQueues, prefill: 1 << 16, ops: 1 << 18}
	rankSmoke = rankSize{queues: paperQueues, prefill: 1 << 10, ops: 1 << 13}
)

// rankMetrics runs the rank pass twice with one seed, checks the two logs
// are identical, and reports the rank distribution. Every workload runs it:
// all of them use the same queue configuration, so a change that buys
// speed with rank quality shows whichever workload it is measured on.
func rankMetrics(e *env, r *result) error {
	rs, diag := rankGated, rankDiag
	if e.smoke {
		rs, diag = rankSmoke, rankSmoke
	}
	seed := xrand.Tag(e.seed, "perfbench.rank")
	a, err := rankPass(rs, seed)
	if err != nil {
		return err
	}
	b, err := rankPass(rs, seed)
	if err != nil {
		return err
	}
	var differ int64
	if !slices.Equal(a, b) {
		differ = 1
	}
	r.checkUnits("rank_log_deterministic", 1, differ, "two rank passes with one seed must log identical operations")
	st := summarizeRanks(offlineRanks(rs.prefill, rs.prefill+rs.ops, a))
	r.endToEnd.set("rank_mean", st.Mean, "rank")
	r.endToEnd.set("rank_p99", st.P99, "rank")
	r.details["rank_pass"] = map[string]any{"queues": rs.queues, "prefill": rs.prefill, "ops": rs.ops, "ranks": st}
	if e.trace {
		cst, err := concurrentRanks(diag, 2, seed)
		if err != nil {
			return err
		}
		r.layers.set("core.rank_mean_2t", cst.Mean, "rank")
		r.layers.set("core.rank_max", cst.Max, "rank")
	}
	return nil
}

// probeSink keeps probe results live.
var probeSink int

// layerProbes times each layer in isolation through its public functions,
// at the topology and queue occupancy the workload ran with.
func layerProbes(e *env, r *result) error {
	occupancy := max(r.occupancy, paperQueues)
	seed := xrand.Tag(e.seed, "perfbench.probe")
	src := xrand.NewSource(seed)
	r.layers.set("xrand.pair_draw_ns", timeLoop(e, func(n int) {
		for i := 0; i < n; i++ {
			a, b := src.TwoDistinct32(paperQueues)
			probeSink += a + b
		}
	}), "ns")
	r.layers.set("xrand.intn_ns", timeLoop(e, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += src.Intn(paperQueues)
		}
	}), "ns")

	heap := pqueue.NewDAryHeap[int32]()
	for heap.Len() < max(occupancy/paperQueues, 1) {
		heap.Push(src.Uint64()>>1, 0)
	}
	r.layers.set("pqueue.pushpop_ns", timeLoop(e, func(n int) {
		for i := 0; i < n; i++ {
			heap.Push(src.Uint64()>>1, 0)
			it, _ := heap.PopMin()
			probeSink += int(it.Value)
		}
	}), "ns")

	probes, err := core.BudgetProbes(paperQueues, occupancy, seed)
	if err != nil {
		return fmt.Errorf("budget probes: %w", err)
	}
	var parts, total float64
	for _, p := range probes {
		ns := timeLoop(e, p.New())
		r.layers.set("core.budget."+p.Name+"_ns", ns, "ns")
		switch {
		case p.Name == "total":
			total = ns
		case p.SubOf == "":
			parts += ns
		}
	}
	r.layers.set("core.budget.residual_ns", total-parts, "ns")
	r.layers.set("jobs.spin_ns_per_unit", jobs.SpinNsPerUnit(), "ns")
	r.details["probe_occupancy"] = occupancy
	return nil
}

// timeLoop returns the median ns per iteration of loop over five
// repetitions of at least 5 ms each (one short repetition in smoke runs).
func timeLoop(e *env, loop func(iters int)) float64 {
	reps, minRep := 5, 5*time.Millisecond
	if e.smoke {
		reps, minRep = 1, 100*time.Microsecond
	}
	loop(1000)
	iters := 1000
	for {
		t := time.Now()
		loop(iters)
		if time.Since(t) >= minRep {
			break
		}
		iters *= 2
	}
	per := make([]float64, reps)
	for i := range per {
		t := time.Now()
		loop(iters)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// setSpanLayers sets the per-layer metrics the spans give: core call
// latencies and the split of sampled worker time into queue, task and idle.
func setSpanLayers(r *result, ts traceSummary) {
	ins, del := summarize(ts.insertNs), summarize(ts.deleteNs)
	r.layers.set("core.insert_ns_p50", ins.P50, "ns")
	r.layers.set("core.insert_ns_p99", ins.Tail, "ns")
	r.layers.set("core.delete_ns_p50", del.P50, "ns")
	r.layers.set("core.delete_ns_p99", del.Tail, "ns")
	total := ts.queueNs + ts.taskNs + ts.idleNs
	if total <= 0 {
		total = 1
	}
	r.layers.set("sched.queue_share", ts.queueNs/total, "ratio")
	r.layers.set("sched.task_share", ts.taskNs/total, "ratio")
	r.layers.set("sched.idle_share", ts.idleNs/total, "ratio")
	r.layers.set("sched.task_ns", ts.taskNs/float64(max(ts.requests, 1)), "ns")
	r.details["spans"] = map[string]any{"kept": ts.spans, "dropped": ts.dropped, "requests": ts.requests,
		"core_insert_ns": ins, "core_delete_ns": del}
}

// setHandleLayers sets the core counters the handles kept.
func setHandleLayers(r *result, stats []core.HandleStats) {
	var ops, deletes, fails, empty int64
	for _, s := range stats {
		ops += s.Inserts + s.Deletes
		deletes += s.Deletes
		fails += s.LockFails
		empty += s.EmptyScans
	}
	r.layers.set("core.lock_fail_ratio", float64(fails)/float64(max(ops, 1)), "ratio")
	r.layers.set("core.empty_scan_ratio", float64(empty)/float64(max(deletes, 1)), "ratio")
}
