package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the provenance every report carries, so window drift and a
// changed host are visible next to each number.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// noiseSample is a snapshot of the counters that explain run-to-run noise:
// CPU time stolen by the hypervisor and the Go collector's work.
type noiseSample struct {
	stealTicks, totalTicks uint64
	numGC                  uint32
	pauseNs                uint64
}

func sampleNoise() noiseSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := noiseSample{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	s.stealTicks, s.totalTicks = readCPUTicks()
	return s
}

// noise is the difference between two samples.
type noise struct {
	StealPct  float64 `json:"steal_pct"`
	GCCount   float64 `json:"gc_count"`
	GCPauseMs float64 `json:"gc_pause_ms"`
}

func noiseBetween(a, b noiseSample) noise {
	n := noise{
		GCCount:   float64(b.numGC - a.numGC),
		GCPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if dt := b.totalTicks - a.totalTicks; dt > 0 {
		n.StealPct = 100 * float64(b.stealTicks-a.stealTicks) / float64(dt)
	}
	return n
}

// readCPUTicks returns the host-wide steal and total jiffies from the
// aggregate line of /proc/stat (zeros where it is unavailable).
func readCPUTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already part of user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// settledRSSMB collects the heap, returns the freed memory to the OS and
// reports the resident set in MiB: the memory the live state holds. The
// peak resident set of a Go program depends on when the collector happened
// to run, so it does not repeat from run to run; this does.
func settledRSSMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
