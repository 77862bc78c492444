package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"powerchoice"
	"powerchoice/internal/core"
	"powerchoice/internal/xrand"
)

// holdSize shapes a hold workload: a closed loop of Insert/DeleteMin pairs
// through the facade, one handle per worker, on a prefilled MultiQueue
// whose size stays constant. Keys follow the classic hold model: the
// prefill is uniform over [0, holdSpan) and each pair inserts the key its
// worker last removed plus a uniform increment below holdSpan. Its key
// distribution is stationary. Uniform random inserts are not: the removal
// threshold climbs through the run, more and more inserts become the new
// minimum, and the cost of a pair drifts for several seconds.
type holdSize struct {
	workers, prefill int
}

var (
	// hold1t: one worker over ~128k elements per queue, past L2, so heap
	// sift and queue sampling dominate and no lock is ever contended.
	hold1t = holdSize{workers: 1, prefill: 1 << 20}
	// hold2t: two workers over heaps that stay in cache, so lock-word and
	// cached-top traffic and TryLock failures dominate.
	hold2t = holdSize{workers: 2, prefill: 1 << 16}
)

const (
	// holdBlock is the pairs a worker runs between stop checks; the last
	// pair of each block is the timed sample, enough for a p99 in every
	// round. Traced rounds record spans on one block in holdSpanBlocks, to
	// keep the span file small.
	holdBlock      = 128
	holdSpanBlocks = 8
	// holdWindow is one measured round; throughput is the median round.
	holdWindow = 100 * time.Millisecond
	// holdWarm is run before measuring, so caches fill and the keys
	// settle into the hold model's distribution.
	holdWarm = time.Second
	// holdSpan bounds the key increments; keys advance by about
	// holdSpan/prefill per removal, far from overflowing 64 bits.
	holdSpan = 1 << 48
)

// mix scrambles a key for the conservation checksum, so that a lost key and
// a duplicated one cannot cancel out in the sum.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

type holdWorker struct {
	h   *powerchoice.Handle[int32]
	rng *xrand.Source
	// last is the key this worker removed last; it inserts last + increment.
	last uint64
	// Conservation accounting: counts and checksums of keys in and out.
	pairs, deletes, emptyPops, blocks int64
	sumIn, sumOut                     uint64
	// lat holds the sampled pair latencies of untraced rounds, in ns. Four
	// bytes a sample keep the samples' share of rss_mb small.
	lat []uint32
	log spanLog
}

type holdState struct {
	mq         *powerchoice.MultiQueue[int32]
	workers    []*holdWorker
	prefill    int64
	prefillSum uint64
}

// newHold builds the prefilled queue: the workload's set-up.
func newHold(workers, prefill int, seed uint64) (*holdState, error) {
	mq, err := powerchoice.New[int32](powerchoice.WithQueues(paperQueues),
		powerchoice.WithSeed(xrand.Tag(seed, "perfbench.hold.queue")))
	if err != nil {
		return nil, err
	}
	st := &holdState{mq: mq, prefill: int64(prefill)}
	keys := xrand.NewSource(xrand.Tag(seed, "perfbench.hold.prefill"))
	h := mq.NewHandle()
	for i := 0; i < prefill; i++ {
		k := keys.Uint64() % holdSpan
		h.Insert(k, 0)
		st.prefillSum += mix(k)
	}
	streams := xrand.NewSharded(xrand.Tag(seed, "perfbench.hold.workers"))
	for w := 0; w < workers; w++ {
		st.workers = append(st.workers, &holdWorker{h: mq.NewHandle(), rng: streams.Source(w), log: spanLog{worker: w}})
	}
	return st, nil
}

// run executes pair blocks until stop is set and returns the pairs done.
func (w *holdWorker) run(stop *atomic.Bool, traced bool) int64 {
	var pairs int64
	for !stop.Load() {
		for i := 0; i < holdBlock-1; i++ {
			w.pair()
		}
		w.blocks++
		if !traced || w.blocks%holdSpanBlocks == 0 {
			w.sampledPair(traced)
		} else {
			w.pair()
		}
		pairs += holdBlock
	}
	w.pairs += pairs
	return pairs
}

// pair inserts the next hold-model key and removes a minimum.
func (w *holdWorker) pair() {
	k := w.last + w.rng.Uint64()%holdSpan
	w.sumIn += mix(k)
	w.h.Insert(k, 0)
	if d, _, ok := w.h.DeleteMin(); ok {
		w.last = d
		w.sumOut += mix(d)
		w.deletes++
	} else {
		w.emptyPops++
	}
}

// sampledPair runs one timed pair: its latency on untraced rounds, a
// request span with its two core spans on traced ones.
func (w *holdWorker) sampledPair(traced bool) {
	var t0 int64
	if traced {
		t0 = now()
	}
	k := w.last + w.rng.Uint64()%holdSpan
	w.sumIn += mix(k)
	t1 := now()
	w.h.Insert(k, 0)
	var t2 int64
	if traced {
		t2 = now()
	}
	d, _, ok := w.h.DeleteMin()
	t3 := now()
	if ok {
		w.last = d
		w.sumOut += mix(d)
		w.deletes++
	} else {
		w.emptyPops++
	}
	if !traced {
		w.lat = append(w.lat, uint32(min(t3-t1, math.MaxUint32)))
		return
	}
	root := w.log.add(spanRequest, -1, t0, t3)
	if root >= 0 {
		w.log.add(spanInsert, root, t1, t2)
		w.log.add(spanDelete, root, t2, t3)
	}
}

// measure runs rounds of `window` until `budget` has passed and returns the
// throughput of each round in Mops/s (two ops per pair), split into
// untraced and traced rounds, and the tail pair latency of each untraced
// round in µs.
func (st *holdState) measure(budget, window time.Duration, traceRound func(int) bool) (plain, traced, tails []float64) {
	var stop atomic.Bool
	begin := time.Now()
	for round := 0; time.Since(begin) < budget; round++ {
		tr := traceRound(round)
		stop.Store(false)
		counts := make([]int64, len(st.workers))
		var before []int
		for _, w := range st.workers {
			before = append(before, len(w.lat))
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i, w := range st.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				counts[i] = w.run(&stop, tr)
			}()
		}
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		var pairs int64
		for _, c := range counts {
			pairs += c
		}
		mops := 2 * float64(pairs) / time.Since(start).Seconds() / 1e6
		if tr {
			traced = append(traced, mops)
			continue
		}
		plain = append(plain, mops)
		var lat []uint32
		for i, w := range st.workers {
			lat = append(lat, w.lat[before[i]:]...)
		}
		if d := summarize(nsToUs(lat)); d.TailP > 50 {
			tails = append(tails, d.Tail)
		}
	}
	return plain, traced, tails
}

func runHold(e *env, r *result, hs holdSize) error {
	prefill, window := hs.prefill, holdWindow
	if e.smoke {
		prefill, window = 1<<12, 2*time.Millisecond
	}
	var st *holdState
	err := timeSetups(r, func() { st = nil }, func() (err error) {
		st, err = newHold(hs.workers, prefill, e.seed)
		return err
	})
	if err != nil {
		return err
	}
	r.occupancy = prefill

	budget, warm := time.Duration(e.seconds*float64(time.Second)), holdWarm
	if e.smoke {
		warm = window
	}
	st.measure(warm, window, func(int) bool { return false })
	for _, w := range st.workers {
		w.lat = w.lat[:0]
	}
	n0 := sampleNoise()
	plain, traced, tails := st.measure(budget, window, func(round int) bool { return e.trace && round%2 == 1 })
	r.noise = noiseBetween(n0, sampleNoise())
	r.endToEnd.set("rss_mb", settledRSSMB(), "MB")

	// Conservation: everything inserted is either deleted during the run or
	// drained now, exactly once.
	in, sum := st.prefill, st.prefillSum
	var out, emptyPops int64
	var sumOut uint64
	var lat []uint32
	var stats []core.HandleStats
	for _, w := range st.workers {
		in += w.pairs
		sum += w.sumIn
		out += w.deletes
		sumOut += w.sumOut
		emptyPops += w.emptyPops
		lat = append(lat, w.lat...)
		stats = append(stats, w.h.Stats())
		r.spans = append(r.spans, &w.log)
	}
	drain := st.mq.NewHandle()
	for {
		k, _, ok := drain.DeleteMin()
		if !ok {
			break
		}
		out++
		sumOut += mix(k)
	}
	var pairs int64
	for _, w := range st.workers {
		pairs += w.pairs
	}
	var failed int64
	if out != in || sumOut != sum || st.mq.Len() != 0 {
		failed = max(1, abs(in-out))
	}
	r.checkUnits("exact_once_conservation", pairs, failed,
		fmt.Sprintf("inserted %d, deleted+drained %d, checksum match %v, left %d", in, out, sum == sumOut, st.mq.Len()))

	r.details["prefill"] = prefill
	r.details["workers"] = hs.workers
	r.details["rounds"] = len(plain) + len(traced)
	r.details["round_mops"] = summarize(slices.Clone(plain))
	tput := median(plain)
	if !e.trace {
		r.endToEnd.set("throughput_mops", tput, "Mops/s")
		d := summarize(nsToUs(lat))
		r.endToEnd.set("latency_p50_us", d.P50, "us")
		r.endToEnd.set("latency_p99_us", median(tails), "us")
		r.details["pair_latency_us"] = d
		return nil
	}
	setSpanLayers(r, summarizeSpans(r.spans))
	setHandleLayers(r, stats)
	r.layers.set("sched.empty_pops", float64(emptyPops), "count")
	r.layers.set("sched.stale", 0, "count")
	r.layers.set("sched.qlen_mean", float64(prefill), "count")
	r.layers.set("sched.gen_late_p50_us", 0, "us")
	r.layers.set("sched.gen_late_p99_us", 0, "us")
	r.layers.set("sched.wait_us_p99", 0, "us")
	r.layers.set("trace_overhead_pct", 100*(tput-median(traced))/tput, "%")
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
