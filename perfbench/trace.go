package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now is the monotonic
// clock in nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanName identifies the boundary a span was recorded at.
type spanName uint8

const (
	// spanRequest is one served request on a worker: for the hold loops an
	// Insert+DeleteMin pair, for the executors a successful pop through to
	// the worker's next pop (the task and its pushes inside).
	spanRequest spanName = iota
	// spanIdle is a failed pop through to the worker's next pop: the empty
	// scan plus the executor's idle wait.
	spanIdle
	// spanInsert and spanDelete are calls into core.Handle.
	spanInsert
	spanDelete
	numSpanNames
)

var spanNames = [numSpanNames]string{"request", "idle", "core.insert", "core.delete"}

// span is one timed interval. parent indexes the enclosing span in the
// same log (−1 for a root): the spans of one request are all recorded by
// the goroutine that served it.
type span struct {
	start, end int64
	parent     int32
	name       spanName
}

// maxSpans bounds one goroutine's span log; spans beyond it are counted,
// not kept.
const maxSpans = 1 << 20

// spanLog is one goroutine's in-memory span buffer. Goroutines never share
// a log, so recording takes no lock.
type spanLog struct {
	worker  int
	spans   []span
	dropped int64
}

// add records a closed span and returns its index, or −1 when full.
func (l *spanLog) add(name spanName, parent int32, start, end int64) int32 {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{start: start, end: end, parent: parent, name: name})
	return int32(len(l.spans) - 1)
}

// traceSummary is what the per-layer metrics derive from a run's spans.
type traceSummary struct {
	// durations of the core spans, in nanoseconds.
	insertNs, deleteNs []float64
	// queueNs, taskNs and idleNs split the sampled worker time: core calls
	// inside requests, request self time, and idle spans.
	queueNs, taskNs, idleNs float64
	requests                int
	spans                   int
	dropped                 int64
}

// summarizeSpans derives self times from the logs: a span's self time is
// its duration minus the part its children cover. Children of one span are
// sequential calls on one goroutine, so they never overlap.
func summarizeSpans(logs []*spanLog) traceSummary {
	var ts traceSummary
	for _, l := range logs {
		childNs := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				childNs[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			d := float64(s.end - s.start)
			switch s.name {
			case spanInsert:
				ts.insertNs = append(ts.insertNs, d)
			case spanDelete:
				ts.deleteNs = append(ts.deleteNs, d)
			case spanRequest:
				ts.requests++
				ts.queueNs += float64(childNs[i])
				ts.taskNs += d - float64(childNs[i])
			case spanIdle:
				ts.idleNs += d
			}
		}
		ts.spans += len(l.spans)
		ts.dropped += l.dropped
	}
	return ts
}

// writeSpans writes every kept span as one tab-separated line: id, parent
// id ("-" for a root), name, worker, start and end in nanoseconds since the
// run's epoch. Ids are "<worker>.<index>".
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tworker\tstart_ns\tend_ns")
	for _, l := range logs {
		for i, s := range l.spans {
			parent := "-"
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", l.worker, s.parent)
			}
			fmt.Fprintf(w, "%d.%d\t%s\t%s\t%d\t%d\t%d\n", l.worker, i, parent, spanNames[s.name], l.worker, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
