package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/workload"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	// 1..200: the highest percentile with 10 samples above it is the 190th
	// sample, percentile 95.
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	got := tailOf(xs)
	if got.value != 190 || got.pct != 95 || got.beyond != 10 || got.samples != 200 {
		t.Errorf("tailOf(1..200) = %+v, want value 190 at p95 with 10 beyond", got)
	}
	if xs[0] != 200 {
		t.Error("tailOf sorted its input in place")
	}

	// 11 samples: the first rank with 10 beyond is the smallest one.
	eleven := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	if got := tailOf(eleven); got.value != 1 || got.beyond != 10 {
		t.Errorf("tailOf(11 samples) = %+v, want the minimum with 10 beyond", got)
	}

	// Too few samples for the rule: the maximum, flagged by beyond = 0.
	if got := tailOf([]float64{3, 9, 4}); got.value != 9 || got.beyond != 0 || got.pct != 100 {
		t.Errorf("tailOf(3 samples) = %+v, want the maximum with 0 beyond", got)
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("tailOf(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestPooledRateWeighsByTime(t *testing.T) {
	// 100 flows in 1s and 300 flows in 1s pool to 200/s; 100 in 1s and
	// 100 in 3s pool to 50/s, not to the 66.7/s mean of the two rates.
	if r := pooledRate([]int{100, 300}, []time.Duration{time.Second, time.Second}); r != 200 {
		t.Errorf("pooledRate = %v, want 200", r)
	}
	if r := pooledRate([]int{100, 100}, []time.Duration{time.Second, 3 * time.Second}); r != 50 {
		t.Errorf("pooledRate = %v, want 50", r)
	}
	if r := pooledRate(nil, nil); r != 0 {
		t.Errorf("pooledRate of nothing = %v, want 0", r)
	}
}

func TestTableMixFollowsShares(t *testing.T) {
	counts := tableMix(20)
	total := 0
	byName := make(map[string]int)
	for i, b := range workload.Catalog() {
		total += counts[i]
		byName[b.Name] = counts[i]
	}
	// Table 1: grep holds 15% of the mix, terasort 5%.
	if total != 20 || byName["grep"] != 3 || byName["terasort"] != 1 {
		t.Errorf("tableMix(20) = %v, want 20 jobs with 3 grep and 1 terasort", byName)
	}
}

func TestGenJobsStratifiesSizesPerBenchmark(t *testing.T) {
	jobs, err := genJobs(7, 20, 64, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	half := (cfg.MinInputGB + cfg.MaxInputGB) / 2
	low := make(map[string]int)
	high := make(map[string]int)
	for _, j := range jobs {
		if j.InputGB < half {
			low[j.Benchmark]++
		} else {
			high[j.Benchmark]++
		}
	}
	// A benchmark with two jobs gets one from each half of the size range.
	for _, name := range []string{"index", "join", "sequence-count", "wordcount", "histogram"} {
		if low[name] != 1 || high[name] != 1 {
			t.Errorf("%s: %d small and %d large jobs, want one of each", name, low[name], high[name])
		}
	}
}

func TestFabricPlanesOfAFatTree(t *testing.T) {
	topo, err := topology.NewFatTree(8, topology.LinkParams{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	planes := fabricPlanes(topo)
	if len(planes) != 4 {
		t.Fatalf("%d planes, want 4", len(planes))
	}
	for i, p := range planes {
		// One aggregation switch per pod and a core group of four.
		if len(p) != 8+4 {
			t.Errorf("plane %d has %d switches, want 12", i, len(p))
		}
	}
}

func TestGoldenGateCatchesADifferentOutcome(t *testing.T) {
	if runtime.GOARCH != goldenArch {
		t.Skipf("golden values are recorded on %s", goldenArch)
	}
	g := &goldenShuffle
	o := outcome{flows: g.flows, cost: math.Float64frombits(g.cost), jctMean: math.Float64frombits(g.jct),
		makespan: math.Float64frombits(g.makespan), digest: g.digest}
	if ok, checked := checkGolden(g, defaultSeed, o); !ok || !checked {
		t.Fatalf("recorded outcome: ok %v checked %v, want both", ok, checked)
	}
	o.makespan = math.Nextafter(o.makespan, 0)
	if ok, _ := checkGolden(g, defaultSeed, o); ok {
		t.Error("a makespan one ulp off passed the golden gate")
	}
	if _, checked := checkGolden(g, defaultSeed+1, o); checked {
		t.Error("the golden gate checked a seed it has no values for")
	}
	if _, checked := checkGolden(nil, defaultSeed, o); checked {
		t.Error("the golden gate checked a workload it has no values for")
	}
}
