package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"powerchoice/internal/core"
	"powerchoice/internal/fenwick"
)

// A rank log is a sequence of queue operations on consecutive labels, in
// the order they took effect. Each entry is a label; insertFlag marks an
// insertion, its absence a removal.
const insertFlag = uint64(1) << 63

// rankSize fixes the paper's process the rank pass runs: labels
// 0..prefill−1 are inserted first, then ops removal+insertion pairs follow,
// each inserting the next fresh label (the prefixed run of §3).
type rankSize struct {
	queues, prefill, ops int
}

// rankPass runs the paper's process single-threaded on one core.Handle and
// returns its rank log. A single handle and a fixed seed make the log a pure
// function of its arguments, which the benchmark checks by running it twice.
func rankPass(rs rankSize, seed uint64) ([]uint64, error) {
	mq, err := core.New[int32](core.WithQueues(rs.queues), core.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("rank pass: %w", err)
	}
	h := mq.Handle()
	for i := 0; i < rs.prefill; i++ {
		h.Insert(uint64(i), 0)
	}
	log := make([]uint64, 0, 2*rs.ops)
	next := uint64(rs.prefill)
	for i := 0; i < rs.ops; i++ {
		k, _, ok := h.DeleteMin()
		if !ok {
			return nil, fmt.Errorf("rank pass: queue empty after %d ops", i)
		}
		log = append(log, k)
		h.Insert(next, 0)
		log = append(log, next|insertFlag)
		next++
	}
	return log, nil
}

// offlineRanks replays a rank log against a Fenwick presence tree over the
// labels [0, capacity), the first prefill of them present at the start, and
// returns each removal's rank: 1 plus the number of present labels smaller
// than the removed one. A removal logged before the insertion of its label
// (possible only in concurrent logs) is clamped to rank 1.
func offlineRanks(prefill, capacity int, log []uint64) []int32 {
	present := fenwick.New(capacity)
	for i := 0; i < prefill; i++ {
		present.Add(i, 1)
	}
	ranks := make([]int32, 0, len(log)/2)
	for _, e := range log {
		if e&insertFlag != 0 {
			present.Add(int(e&^insertFlag), 1)
			continue
		}
		r := present.PrefixSum(int(e))
		if r < 1 {
			r = 1
		}
		present.Add(int(e), -1)
		ranks = append(ranks, int32(r))
	}
	return ranks
}

// rankStats describes a rank distribution. Ranks are integers, so P99 is
// interpolated within its integer bin: a bare order statistic would read
// the same integer on nearly every run and hide a shift of the tail.
type rankStats struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func summarizeRanks(ranks []int32) rankStats {
	if len(ranks) == 0 {
		return rankStats{}
	}
	s := slices.Clone(ranks)
	slices.Sort(s)
	var sum float64
	for _, r := range s {
		sum += float64(r)
	}
	return rankStats{
		N:    len(s),
		Mean: sum / float64(len(s)),
		P99:  groupedPercentile(s, 99),
		Max:  float64(s[len(s)-1]),
	}
}

// groupedPercentile treats each integer value r of an ascending sample as
// the bin [r−½, r+½) and interpolates the p-th percentile inside the bin
// where the cumulative share crosses p.
func groupedPercentile(sorted []int32, p float64) float64 {
	n := len(sorted)
	target := p / 100 * float64(n)
	// First index whose cumulative count reaches the target.
	i := sort.Search(n, func(i int) bool { return float64(i+1) >= target })
	if i >= n {
		i = n - 1
	}
	r := sorted[i]
	below := sort.Search(n, func(j int) bool { return sorted[j] >= r })
	above := sort.Search(n, func(j int) bool { return sorted[j] > r })
	return float64(r) - 0.5 + (target-float64(below))/float64(above-below)
}

// concurrentRanks runs the paper's process with `threads` handles at once
// and sequences every operation through one atomic counter, as
// internal/bench's rank harness does. Unlike rankPass its result depends on
// the OS schedule, so it is a diagnostic, not a gated metric.
func concurrentRanks(rs rankSize, threads int, seed uint64) (rankStats, error) {
	mq, err := core.New[int32](core.WithQueues(rs.queues), core.WithSeed(seed))
	if err != nil {
		return rankStats{}, fmt.Errorf("concurrent ranks: %w", err)
	}
	h := mq.Handle()
	for i := 0; i < rs.prefill; i++ {
		h.Insert(uint64(i), 0)
	}
	var label atomic.Uint64
	label.Store(uint64(rs.prefill))
	var seq atomic.Int64
	type event struct {
		seq int64
		e   uint64
	}
	logs := make([][]event, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := mq.Handle()
			evs := make([]event, 0, 2*rs.ops)
			for i := 0; i < rs.ops; i++ {
				k, _, ok := local.DeleteMin()
				s := seq.Add(1)
				if ok {
					evs = append(evs, event{s, k})
				}
				l := label.Add(1) - 1
				local.Insert(l, 0)
				evs = append(evs, event{seq.Add(1), l | insertFlag})
			}
			logs[w] = evs
		}(w)
	}
	wg.Wait()
	var all []event
	for _, l := range logs {
		all = append(all, l...)
	}
	slices.SortFunc(all, func(a, b event) int { return int(a.seq - b.seq) })
	log := make([]uint64, len(all))
	for i, ev := range all {
		log[i] = ev.e
	}
	return summarizeRanks(offlineRanks(rs.prefill, int(label.Load()), log)), nil
}
