package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/graph"
	"powerchoice/internal/xrand"
)

const (
	ssspSide    = 1000 // grid side: 1M nodes, ~4.3M directed edges
	ssspDiag    = 0.15 // share of blocks with a diagonal street
	ssspWorkers = 2
	// ssspStride samples request latency (and, traced, spans) on every
	// ssspStride-th pop of each worker.
	ssspStride = 64
	ssspSpans  = 256
	// ssspGraphTag derives the road network's seed.
	ssspGraphTag = "perfbench.sssp.graph"
)

// runSSSP solves single-source shortest paths on a road network with two
// workers sharing the MultiQueue through sched (graph.ParallelSSSP), as
// many times as the budget allows, and checks each result against
// sequential Dijkstra.
func runSSSP(e *env, r *result) error {
	side := ssspSide
	if e.smoke {
		side = 40
	}
	graphSeed := xrand.Tag(e.seed, ssspGraphTag)
	var g *graph.Graph
	err := timeSetups(r, func() { g = nil }, func() (err error) {
		g, err = graph.RoadNetwork(side, side, ssspDiag, graphSeed)
		return err
	})
	if err != nil {
		return err
	}
	src := xrand.NewSource(xrand.Tag(e.seed, "perfbench.sssp.source")).Intn(g.NumNodes())
	t := time.Now()
	want, err := graph.Dijkstra(g, src)
	if err != nil {
		return err
	}
	r.details["dijkstra_s"] = time.Since(t).Seconds()

	queueSeed := xrand.Tag(e.seed, "perfbench.sssp.queue")
	budget := time.Duration(e.seconds * float64(time.Second))
	var plain, traced, wasted, tails []float64
	var lat []int64
	var stats []core.HandleStats
	var solves, badSolves, processed, stale, emptyPops int64
	var qlenSum, qlenN float64
	n0 := sampleNoise()
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < budget; i++ {
		tr := e.trace && i%2 == 1
		probe := probeCfg{latStride: ssspStride, spanStride: probeOff.spanStride}
		if e.trace {
			probe.latStride = probeOff.latStride
		}
		if tr {
			probe.spanStride = ssspSpans
		}
		mq, err := core.New[int32](core.WithQueues(paperQueues), core.WithSeed(queueSeed))
		if err != nil {
			return err
		}
		q := newMQQueue(mq, probe, i*ssspWorkers)
		stopSampler := func() (float64, float64) { return 0, 0 }
		if tr {
			stopSampler = sampleLen(mq)
		}
		// Start each solve from a collected heap, so the collector does not
		// run during one because of the garbage of the last.
		runtime.GC()
		t := time.Now()
		dist, st, err := graph.ParallelSSSP(g, src, q, ssspWorkers)
		el := time.Since(t).Seconds()
		s, n := stopSampler()
		qlenSum, qlenN = qlenSum+s, qlenN+n
		if err != nil {
			return err
		}
		solves++
		if !slices.Equal(dist, want) {
			badSolves++
		}
		nodes := float64(g.NumNodes()) / el / 1e6
		if tr {
			traced = append(traced, nodes)
		} else {
			plain = append(plain, nodes)
		}
		// Every pop is processed or stale; Relaxations counts the pushes.
		var pops int64
		var solveLat []int64
		for _, v := range q.views {
			v.finish()
			solveLat = append(solveLat, v.lat...)
			hs := v.h.Stats()
			stats = append(stats, hs)
			pops += hs.Deletes
			emptyPops += v.empty
			r.spans = append(r.spans, &v.log)
		}
		if d := summarize(nsToUs(solveLat)); d.TailP > 50 {
			tails = append(tails, d.Tail)
		}
		lat = append(lat, solveLat...)
		solveProcessed := pops - st.WastedPops
		processed += solveProcessed
		stale += st.WastedPops
		wasted = append(wasted, float64(st.WastedPops)/float64(max(solveProcessed, 1)))
	}
	r.noise = noiseBetween(n0, sampleNoise())
	r.endToEnd.set("rss_mb", settledRSSMB(), "MB")
	runtime.KeepAlive(g)
	r.checkUnits("distances_equal_dijkstra", solves, badSolves, fmt.Sprintf("%d solves from node %d", solves, src))

	solveS := float64(g.NumNodes()) / median(plain) / 1e6
	r.extra.set("solve_s", solveS, "s")
	r.extra.set("wasted_ratio", median(wasted), "ratio")
	r.details["graph"] = map[string]any{"nodes": g.NumNodes(), "edges": g.NumEdges(), "source": src}
	r.details["solves"] = solves
	r.details["processed"] = processed
	r.details["stale"] = stale
	if !e.trace {
		r.endToEnd.set("throughput_mops", median(plain), "Mops/s")
		d := summarize(nsToUs(lat))
		r.endToEnd.set("latency_p50_us", d.P50, "us")
		r.endToEnd.set("latency_p99_us", median(tails), "us")
		r.details["task_latency_us"] = d
		return nil
	}
	qlenMean := qlenSum / max(qlenN, 1)
	r.occupancy = int(qlenMean)
	setSpanLayers(r, summarizeSpans(r.spans))
	setHandleLayers(r, stats)
	r.layers.set("sched.empty_pops", float64(emptyPops)/float64(solves), "count")
	r.layers.set("sched.stale", float64(stale)/float64(solves), "count")
	r.layers.set("sched.qlen_mean", qlenMean, "count")
	r.layers.set("sched.gen_late_p50_us", 0, "us")
	r.layers.set("sched.gen_late_p99_us", 0, "us")
	r.layers.set("sched.wait_us_p99", 0, "us")
	r.layers.set("trace_overhead_pct", 100*(median(plain)-median(traced))/median(plain), "%")
	return nil
}

// sampleLen samples the queue's element count every millisecond until the
// returned stop function is called, which reports the sum and count.
func sampleLen(mq *core.MultiQueue[int32]) func() (sum, n float64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sum += float64(mq.Len())
				n++
			case <-stop:
				return
			}
		}
	}()
	return func() (float64, float64) {
		close(stop)
		wg.Wait()
		return sum, n
	}
}
