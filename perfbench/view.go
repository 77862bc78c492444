package main

import (
	"math"
	"sync"

	"powerchoice/internal/core"
	"powerchoice/internal/sched"
)

// probeCfg says which calls a queue view samples. A stride of n samples
// every n-th DeleteMin; math.MaxInt turns sampling off.
type probeCfg struct {
	// latStride samples request latency: from a successful pop to the
	// worker's next pop, which covers the task and its pushes.
	latStride int
	// spanStride samples spans (traced runs): a request or idle root span
	// with the core calls inside it as children. On a view that never pops
	// (an open-loop producer) it samples inserts as root spans instead.
	spanStride int
}

var probeOff = probeCfg{latStride: math.MaxInt, spanStride: math.MaxInt}

// mqQueue adapts a core.MultiQueue to the sched executor: the shared path
// serves the executor's seed insert, and every goroutine gets its own
// probed view over a core.Handle.
type mqQueue struct {
	mq          *core.MultiQueue[int32]
	probe       probeCfg
	firstWorker int
	mu          sync.Mutex
	views       []*mqView
}

func newMQQueue(mq *core.MultiQueue[int32], probe probeCfg, firstWorker int) *mqQueue {
	return &mqQueue{mq: mq, probe: probe, firstWorker: firstWorker}
}

func (q *mqQueue) Insert(k uint64, v int32)         { q.mq.Insert(k, v) }
func (q *mqQueue) DeleteMin() (uint64, int32, bool) { return q.mq.DeleteMin() }

// Local gives the calling goroutine its own view.
func (q *mqQueue) Local() sched.Queue[int32] {
	q.mu.Lock()
	defer q.mu.Unlock()
	v := &mqView{
		h:        q.mq.Handle(),
		probe:    q.probe,
		latLeft:  q.probe.latStride,
		spanLeft: q.probe.spanStride,
		insLeft:  q.probe.spanStride,
		cur:      -1,
		log:      spanLog{worker: q.firstWorker + len(q.views)},
	}
	q.views = append(q.views, v)
	return v
}

// mqView is one goroutine's probed view. Unsampled calls go straight to the
// handle after two counter decrements and a few compares.
type mqView struct {
	h       *core.Handle[int32]
	probe   probeCfg
	deleter bool
	// empty counts pops that found the queue empty.
	empty int64
	// Countdown to the next sampled call.
	latLeft, spanLeft, insLeft int
	// latStart is the start of the request whose latency is being timed
	// (0 = none); lat collects finished ones in ns.
	latStart int64
	lat      []int64
	// cur is the open root span in log (−1 = none).
	cur int32
	log spanLog
}

func (v *mqView) Insert(k uint64, val int32) {
	if v.cur < 0 && (v.deleter || v.probe.spanStride == math.MaxInt) {
		v.h.Insert(k, val)
		return
	}
	if v.cur < 0 {
		// A producer's view: sample its inserts as root spans.
		if v.insLeft--; v.insLeft > 0 {
			v.h.Insert(k, val)
			return
		}
		v.insLeft = v.probe.spanStride
	}
	t := now()
	v.h.Insert(k, val)
	v.log.add(spanInsert, v.cur, t, now())
}

func (v *mqView) DeleteMin() (uint64, int32, bool) {
	v.deleter = true
	v.latLeft--
	v.spanLeft--
	var k uint64
	var val int32
	var ok bool
	if v.latStart == 0 && v.cur < 0 && v.latLeft > 0 && v.spanLeft > 0 {
		k, val, ok = v.h.DeleteMin()
	} else {
		k, val, ok = v.probedDelete()
	}
	if !ok {
		v.empty++
	}
	return k, val, ok
}

// probedDelete closes the sampled request in flight and, when this call is
// sampled, times it and opens the next one.
func (v *mqView) probedDelete() (uint64, int32, bool) {
	t := now()
	if v.latStart != 0 {
		v.lat = append(v.lat, t-v.latStart)
		v.latStart = 0
	}
	if v.cur >= 0 {
		v.log.spans[v.cur].end = t
		v.cur = -1
	}
	sampleLat, sampleSpan := v.latLeft <= 0, v.spanLeft <= 0
	if sampleLat {
		v.latLeft = v.probe.latStride
	}
	if sampleSpan {
		v.spanLeft = v.probe.spanStride
	}
	k, val, ok := v.h.DeleteMin()
	if sampleLat && ok {
		v.latStart = t
	}
	if sampleSpan {
		end := now()
		name := spanRequest
		if !ok {
			name = spanIdle
		}
		if root := v.log.add(name, -1, t, end); root >= 0 {
			v.log.add(spanDelete, root, t, end)
			v.cur = root
		}
	}
	return k, val, ok
}

// finish closes a span left open when the executor stopped calling the view.
func (v *mqView) finish() {
	if v.cur >= 0 {
		v.log.spans[v.cur].end = now()
		v.cur = -1
	}
	v.latStart = 0
}
