package jobs

// Open-system job server: jobs arrive continuously (Poisson) while P
// workers serve them from the shared (relaxed) priority queue. Where the
// closed-system Run asks "how fast does a prefilled queue drain", this asks
// the question a serving system asks: at a sustained utilization
// ρ = λ·E[S]/P, what sojourn time (wait + service) does each priority class
// see, and what does relaxation cost the urgent classes? This is the
// real-world-constraints framing of Scully & Harchol-Balter (PAPERS.md):
// the rank bound becomes a latency penalty at a given load, not a
// drain-time delta.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"powerchoice/internal/sched"
	"powerchoice/internal/stats"
	"powerchoice/internal/workload"
)

// OpenSpec configures an open-system job-server run.
type OpenSpec struct {
	// Jobs is the total number of arrivals injected (the run serves all of
	// them to completion, so the measurement has an exact end). Ignored when
	// Workload is set — the trace's length wins.
	Jobs int
	// Classes is the number of priority classes (class 0 most urgent).
	// Ignored when Workload is set.
	Classes int
	// ServiceMean is the exact mean service time in spin units (see
	// Spec.ServiceMean); the job population is drawn by Generate, so open
	// and closed runs with equal (Jobs, Classes, ServiceMean, Seed) serve
	// the identical job multiset. Ignored when Workload is set.
	ServiceMean int
	// Workload, when non-nil, replaces the Generate-drawn population AND the
	// Poisson pacing: jobs (class, service, arrival instant) come verbatim
	// from the pre-generated trace, producers pace its fixed schedule
	// (producer p owns arrivals p, p+Producers, …), and Rate/Rho are ignored
	// in favor of the trace's recorded rate. Two runs of the same trace on
	// any queue implementation serve the identical job multiset on the
	// identical schedule — the record→replay determinism contract.
	Workload *workload.Trace
	// Rate is the total arrival rate λ in jobs per second. Leave 0 to
	// derive it from Rho.
	Rate float64
	// Rho is the target utilization ρ = λ·E[S]/P. When Rate is 0, λ is
	// derived as ρ·P/E[S] with E[S] converted to seconds through the spin
	// calibration (SpinNsPerUnit). ρ ≥ 1 deliberately configures overload.
	Rho float64
	// Producers is the number of arrival goroutines (default 1). Their
	// independent Poisson streams superpose to rate λ.
	Producers int
	// Deadline optionally stops injection early (see sched.OpenConfig).
	Deadline time.Duration
	// SampleEvery is the queue-length sampling period; 0 derives one aiming
	// at ~256 samples over the expected injection window (bounded by
	// Deadline when that is shorter — see deriveSampleEvery).
	SampleEvery time.Duration
	// Elastic arms the executor's sampler-driven resize controller
	// (sched.ElasticConfig). Requires a queue that supports online resize
	// (sched.Resizable — the MultiQueue adapters); RunOpen rejects the
	// combination otherwise rather than silently running fixed-topology.
	Elastic sched.ElasticConfig
	// Seed fixes workload and interarrival randomness.
	Seed uint64
}

// OpenResult reports one open-system run.
type OpenResult struct {
	// Elapsed is the full wall time: injection window plus the
	// drain-to-zero epilogue.
	Elapsed time.Duration
	// OfferedRate is the configured λ in jobs/second; AchievedRate is
	// Injected/Elapsed, which sags below OfferedRate when the system is
	// overloaded (the epilogue drains a standing queue) or the host cannot
	// pace that fast.
	OfferedRate  float64
	AchievedRate float64
	// Rho is the target utilization λ·E[S]/P the run was configured for,
	// computed from the exact E[S] and the spin calibration. The spin loop
	// is the only work rho accounts for; queue operations and measurement
	// overhead add load on top, so effective utilization is somewhat
	// higher — comparisons across implementations at equal Rho remain
	// apples-to-apples.
	Rho float64
	// SpinNsPerUnit is the calibrated wall-time cost of one spin unit used
	// for the ρ↔λ conversion.
	SpinNsPerUnit float64
	// SampleEvery is the queue-length sampling period the run actually used:
	// the configured value, or the derived one (see deriveSampleEvery) when
	// the spec left it zero.
	SampleEvery time.Duration
	// Injected counts jobs actually injected (== Jobs unless Deadline cut
	// injection short). Every injected job is served before the run
	// returns.
	Injected int64
	// Inversions / InvWaiting count priority inversions exactly as in the
	// closed-system Result, except a job only becomes "waiting" at its
	// arrival instant.
	Inversions int64
	InvWaiting int64
	// PerClass reports per-class *sojourn* times (arrival → completion,
	// i.e. wait + service), not the closed-system drain latencies. A trace
	// replay times each job from its due time in the trace, so generator
	// lag counts against the sojourn; a Poisson run times it from its
	// injection and reports the lag separately (GenLate*).
	PerClass []ClassStats
	// SojournP50Ms / SojournP99Ms are the percentiles of the pooled sojourn
	// samples across every class — the single number a capacity-planning SLO
	// ("p99 sojourn under X ms") binds to.
	SojournP50Ms float64
	SojournP99Ms float64
	// GenLateMeanMs / GenLateMaxMs are the mean and largest lag of an
	// injection behind its scheduled instant, and GenLateOver1ms counts the
	// injections more than a millisecond late (sched.OpenStats.Late).
	GenLateMeanMs  float64
	GenLateMaxMs   float64
	GenLateOver1ms int64
	// QLen is the queue-length (pending jobs) timeseries and QLenMean its
	// mean — the open-system face of Little's law (E[N] = λ·E[sojourn]).
	QLen     []int64
	QLenMean float64
	// Stats are the executor's counters.
	Stats sched.OpenStats
}

// spinCal caches the spin-unit calibration: the conversion between the
// simulated service times (spin units) and wall time, needed to target a
// real utilization.
var spinCal struct {
	once sync.Once
	ns   float64
}

// SpinNsPerUnit measures (once, then caches) the wall-time cost in
// nanoseconds of one spin unit on this host. The minimum of a few reps is
// taken so a stray descheduling cannot inflate the calibration.
func SpinNsPerUnit() float64 {
	spinCal.once.Do(func() {
		const units = 1 << 21
		best := math.MaxFloat64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			spin(units, uint64(rep)+1)
			if d := float64(time.Since(t0).Nanoseconds()) / units; d < best {
				best = d
			}
		}
		spinCal.ns = best
	})
	return spinCal.ns
}

// deriveSampleEvery picks a queue-length sampling period aiming at ~256
// samples over the injection window. The window is jobs/rate — or the
// deadline, when a deadline will cut injection earlier: before this fix the
// derivation ignored Deadline, so a huge quota at a modest rate (the usual
// deadline-bounded configuration) derived a period against an hours-long
// nominal window, clamped to 100ms, and a 2-second run got 20 samples
// instead of ~256. Clamps keep degenerate rates from producing a zero or
// glacial period.
func deriveSampleEvery(jobs int64, rate float64, deadline time.Duration) time.Duration {
	window := float64(jobs) / rate * float64(time.Second)
	if deadline > 0 && float64(deadline) < window {
		window = float64(deadline)
	}
	sampleEvery := time.Duration(window / 256)
	if sampleEvery < 100*time.Microsecond {
		sampleEvery = 100 * time.Microsecond
	}
	if sampleEvery > 100*time.Millisecond {
		sampleEvery = 100 * time.Millisecond
	}
	return sampleEvery
}

// RunOpen generates the job population from the spec — or takes it verbatim
// from spec.Workload's trace — and serves it as an open system:
// spec.Producers goroutines inject arrivals (Poisson at λ, or the trace's
// fixed schedule) while `workers` goroutines serve, through the sched
// executor with bulk size `batch` (0 or 1 = unbatched). It returns when
// every injected job has been served — the executor's drain-to-zero
// epilogue guarantees none is lost in shared queues or worker-local batch
// buffers at shutdown.
func RunOpen(spec OpenSpec, q sched.Queue[int32], workers, batch int) (OpenResult, error) {
	if q == nil {
		return OpenResult{}, fmt.Errorf("jobs: nil queue")
	}
	if spec.Elastic.Enable {
		if _, ok := q.(sched.Resizable); !ok {
			return OpenResult{}, fmt.Errorf("jobs: elastic topology requested but the queue does not support online resize")
		}
	}
	if workers < 1 {
		workers = 1
	}
	producers := spec.Producers
	if producers < 1 {
		producers = 1
	}

	// Resolve the job source: per-job (key, class, service), the population
	// size, and the mean service time E[S] the ρ↔λ conversion uses.
	var (
		n          int
		classes    int
		classOf    func(id int) uint8
		serviceOf  func(id int) uint32
		keyOf      func(id int) uint64
		meanSvc    float64
		openCfgFns func(cfg *sched.OpenConfig)
	)
	tr := spec.Workload
	if tr != nil {
		if tr.Jobs() < 1 {
			return OpenResult{}, fmt.Errorf("jobs: empty workload trace")
		}
		n = tr.Jobs()
		classes = tr.NumClasses()
		classOf = func(id int) uint8 { return tr.Class[id] }
		serviceOf = func(id int) uint32 { return tr.Service[id] }
		keyOf = tr.Key
		// The empirical mean of the realized services, not the spec's
		// analytic mean: ρ reports the load this trace actually offers.
		var sum float64
		for _, s := range tr.Service {
			sum += float64(s)
		}
		meanSvc = sum / float64(n)
		nProducers := producers
		openCfgFns = func(cfg *sched.OpenConfig) {
			cfg.Arrivals = func(p int) sched.ArrivalProcess { return tr.Arrivals(p, nProducers) }
			cfg.Strided = true
		}
	} else {
		w, err := Generate(Spec{
			Jobs: spec.Jobs, Classes: spec.Classes,
			ServiceMean: spec.ServiceMean, Seed: spec.Seed,
		})
		if err != nil {
			return OpenResult{}, err
		}
		n = spec.Jobs
		classes = spec.Classes
		classOf = func(id int) uint8 { return w.Class[id] }
		serviceOf = func(id int) uint32 { return w.Service[id] }
		keyOf = w.Key
		meanSvc = w.Spec.ExpectedService()
	}

	nsPerUnit := SpinNsPerUnit()
	serviceSec := meanSvc * nsPerUnit / 1e9
	rate := spec.Rate
	rho := spec.Rho
	if tr != nil {
		// A trace's schedule is fixed at generation time; its recorded rate
		// is the only one the replay can honor.
		rate = tr.Rate
		if rate <= 0 && tr.ArrivalNs[n-1] > 0 {
			rate = float64(n) / (float64(tr.ArrivalNs[n-1]) / 1e9)
		}
		rho = rate * serviceSec / float64(workers)
	} else {
		switch {
		case rate > 0:
			rho = rate * serviceSec / float64(workers)
		case rho > 0:
			rate = rho * float64(workers) / serviceSec
		default:
			return OpenResult{}, fmt.Errorf("jobs: open run needs Rate, Rho, or Workload")
		}
	}
	sampleEvery := spec.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = deriveSampleEvery(int64(n), rate, spec.Deadline)
	}

	classPending := make([]atomic.Int64, classes)
	arrivedAt := make([]int64, n)   // ns since start; -1 = never injected
	completedAt := make([]int64, n) // ns since start; one writer per job
	for i := range arrivedAt {
		arrivedAt[i] = -1
	}
	var inversions, invWaiting atomic.Int64

	start := time.Now()
	// seq is RunOpen's global injection sequence, so it doubles as the job
	// id. In the default (dense) mode the jobs actually injected are always
	// a prefix of the generated workload, whichever producer's pacing stream
	// delivered each one; in trace mode seq is the strided trace index, so
	// each job keeps its recorded identity — and its due time, which is
	// when its sojourn starts, however late the producer injects it.
	gen := func(_, seq int) sched.Item[int32] {
		id := seq
		classPending[classOf(id)].Add(1)
		if tr != nil {
			arrivedAt[id] = tr.ArrivalNs[id]
		} else {
			arrivedAt[id] = time.Since(start).Nanoseconds()
		}
		return sched.Item[int32]{Key: keyOf(id), Value: int32(id)}
	}
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		// Same serving path as the closed-system runs; here "pending" only
		// counts jobs that have *arrived* but not yet been dequeued.
		serveJob(int(classOf(int(id))), serviceOf(int(id)), id, classPending, &inversions, &invWaiting)
		completedAt[id] = time.Since(start).Nanoseconds()
		return true
	}
	openCfg := sched.OpenConfig{
		Workers:     workers,
		Batch:       batch,
		Producers:   producers,
		Rate:        rate,
		Jobs:        int64(n),
		Deadline:    spec.Deadline,
		SampleEvery: sampleEvery,
		Elastic:     spec.Elastic,
		Seed:        spec.Seed,
	}
	if openCfgFns != nil {
		openCfgFns(&openCfg)
	}
	st := sched.RunOpen(q, openCfg, gen, task)
	elapsed := time.Since(start)

	perClass := make([][]float64, classes)
	all := make([]float64, 0, n)
	for id := 0; id < n; id++ {
		if arrivedAt[id] < 0 {
			continue // deadline cut injection before this job arrived
		}
		sojournMs := float64(completedAt[id]-arrivedAt[id]) / 1e6
		perClass[classOf(id)] = append(perClass[classOf(id)], sojournMs)
		all = append(all, sojournMs)
	}
	res := OpenResult{
		Elapsed:       elapsed,
		OfferedRate:   rate,
		AchievedRate:  float64(st.Injected) / elapsed.Seconds(),
		Rho:           rho,
		SpinNsPerUnit: nsPerUnit,
		SampleEvery:   sampleEvery,
		Injected:      st.Injected,
		Inversions:    inversions.Load(),
		InvWaiting:    invWaiting.Load(),
		QLen:          st.QLen,
		Stats:         st,
	}
	if st.Injected > 0 {
		res.GenLateMeanMs = float64(st.Late.Total) / float64(st.Injected) / 1e6
		res.GenLateMaxMs = float64(st.Late.Max) / 1e6
		res.GenLateOver1ms = st.Late.Over1ms
	}
	if len(st.QLen) > 0 {
		var sum float64
		for _, v := range st.QLen {
			sum += float64(v)
		}
		res.QLenMean = sum / float64(len(st.QLen))
	}
	res.PerClass = collectClassStats(perClass)
	if len(all) > 0 {
		res.SojournP50Ms = stats.Percentile(all, 50)
		res.SojournP99Ms = stats.Percentile(all, 99)
	}
	return res, nil
}
