package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"powerchoice/internal/graph"
	"powerchoice/internal/xrand"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	if _, ok := tailPercentile(minBeyond, 100); ok {
		t.Fatalf("%d samples cannot have %d beyond any percentile", minBeyond, minBeyond)
	}
	for _, n := range []int{11, 12, 57, 100, 1000, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, ok := tailPercentile(n, 100)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		beyond := func(p float64) int {
			v := percentileSorted(xs, p)
			c := 0
			for _, x := range xs {
				if x > v {
					c++
				}
			}
			return c
		}
		if b := beyond(p); b < minBeyond {
			t.Errorf("n=%d: p%.4f has %d samples beyond it, want >= %d", n, p, b, minBeyond)
		}
		// The next order statistic up has fewer than minBeyond above it.
		if hi := math.Min(p, 100) + 100/float64(n-1); hi <= 100 && beyond(hi) >= minBeyond {
			t.Errorf("n=%d: p%.4f is not the highest percentile with %d beyond", n, p, minBeyond)
		}
	}
	if p, _ := tailPercentile(1_000_000, 99); p != 99 {
		t.Errorf("cap: got p%v, want p99", p)
	}
}

func TestSummarizeSmallSampleFallsBackToMedian(t *testing.T) {
	d := summarize([]float64{3, 1, 2})
	if d.P50 != 2 || d.TailP != 50 || d.Tail != 2 {
		t.Fatalf("got %+v, want median 2 as the tail", d)
	}
}

func TestOfflineRanksMatchBruteForce(t *testing.T) {
	const prefill, ops = 20, 300
	rng := xrand.NewSource(7)
	present := map[uint64]bool{}
	for i := uint64(0); i < prefill; i++ {
		present[i] = true
	}
	var log []uint64
	var want []int32
	next := uint64(prefill)
	for i := 0; i < ops; i++ {
		if len(present) == 0 || rng.Intn(2) == 0 {
			present[next] = true
			log = append(log, next|insertFlag)
			next++
			continue
		}
		// Remove a random present label; its rank counts smaller ones.
		keys := make([]uint64, 0, len(present))
		for k := range present {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		k := keys[rng.Intn(len(keys))]
		var rank int32 = 1
		for _, o := range keys {
			if o < k {
				rank++
			}
		}
		delete(present, k)
		log = append(log, k)
		want = append(want, rank)
	}
	got := offlineRanks(prefill, int(next), log)
	if !slices.Equal(got, want) {
		t.Fatalf("offline ranks %v, brute force %v", got, want)
	}
}

func TestGroupedPercentileInterpolatesWithinBin(t *testing.T) {
	// Ten 1s and ten 2s: the median sits at the top edge of the 1-bin.
	s := []int32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	if got := groupedPercentile(s, 50); got != 1.5 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := groupedPercentile(s, 75); got != 2 {
		t.Errorf("p75 = %v, want 2", got)
	}
}

func TestRankPassIsDeterministic(t *testing.T) {
	a, err := rankPass(rankSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rankPass(rankSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different rank logs")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	h1, err := newHold(1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	h1b, _ := newHold(1, 1024, 1)
	h2, _ := newHold(1, 1024, 2)
	if h1.prefillSum != h1b.prefillSum || h1.prefillSum == h2.prefillSum {
		t.Error("hold prefill keys must follow the seed")
	}

	g1, _ := graph.RoadNetwork(20, 20, ssspDiag, xrand.Tag(1, ssspGraphTag))
	g2, _ := graph.RoadNetwork(20, 20, ssspDiag, xrand.Tag(2, ssspGraphTag))
	_, w1 := g1.Neighbors(0)
	_, w2 := g2.Neighbors(0)
	if slices.Equal(w1, w2) {
		t.Error("sssp edge weights must follow the seed")
	}

	t1, err := serveTrace(xrand.Tag(1, serveTraceTag), 1000, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := serveTrace(xrand.Tag(2, serveTraceTag), 1000, serveRate)
	if slices.Equal(t1.ArrivalNs, t2.ArrivalNs) {
		t.Error("serve arrivals must follow the seed")
	}
}

// runLast runs the command and decodes its last output line.
func runLast(t *testing.T, args ...string) (int, map[string]any) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil && code != 2 {
		t.Fatalf("%v: last line %q: %v (stderr %s)", args, lines[len(lines)-1], err, errb.String())
	}
	return code, last
}

func TestSmokeRunsEveryWorkload(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.tsv")
	for _, w := range workloads {
		for trace, names := range [][]string{endToEndNames, layerNames} {
			code, last := runLast(t, "--workload", w.name, "--seed", "3", "--seconds", "0.05",
				"--trace", strconv.Itoa(trace), "--smoke", "--spans", spans)
			if code != 0 || last["correct"] != true || last["failed"] != 0.0 || last["attempted"].(float64) < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %v", w.name, trace, code, last)
			}
			m := last["metrics"].(map[string]any)
			if len(m) != len(names) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(m), len(names))
			}
			for _, n := range names {
				if _, ok := m[n]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, n)
				}
			}
		}
	}
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("traced runs wrote no span file: %v", err)
	}
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(slices.Clone(saved), benchWorkload{"broken", func(e *env, r *result) error {
		for _, n := range endToEndNames {
			r.endToEnd.set(n, 1, "x")
		}
		r.checkUnits("always_wrong", 4, 1, "")
		return nil
	}})
	code, last := runLast(t, "--workload", "broken", "--seconds", "0.01", "--smoke")
	if code != 1 || last["correct"] != false || last["failed"] != 1.0 {
		t.Fatalf("exit %d, result %v; want exit 1 and correct=false", code, last)
	}
	if code, _ := runLast(t, "--workload", "nope"); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
}

func TestBenchmarkJSONNamesEveryMetricAndWorkload(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(bench.Workloads); !slices.Equal(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, workloadNames())
	}
	if got := names(bench.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", got, endToEndNames)
	}
	if got := names(bench.PerLayer); !slices.Equal(got, layerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", got, layerNames)
	}
}
