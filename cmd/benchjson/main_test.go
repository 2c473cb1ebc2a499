package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHitScalability/servers=216     	       1	 225013141 ns/op	         1.891 oracle-MB	        24.61 peakRSS-MB	57739168 B/op	  686196 allocs/op
BenchmarkHitScalability/servers=10000   	       1	 250153081 ns/op	         1.371 oracle-MB	        61.78 peakRSS-MB	62229496 B/op	  244585 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.Pkg != "repro" {
		t.Errorf("header = %q/%q/%q", rep.GoOS, rep.GoArch, rep.Pkg)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	r := rep.Results[1]
	if r.Name != "BenchmarkHitScalability/servers=10000" || r.Iterations != 1 {
		t.Errorf("result = %+v", r)
	}
	for unit, want := range map[string]float64{
		"ns/op":      250153081,
		"oracle-MB":  1.371,
		"peakRSS-MB": 61.78,
		"B/op":       62229496,
		"allocs/op":  244585,
	} {
		if got := r.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

// TestParseTolerant pins the relaxed grammar: custom unit metrics in any
// order and any count, scientific notation, bare announce lines, and
// metric-free result lines all parse.
func TestParseTolerant(t *testing.T) {
	for _, tc := range []struct {
		name    string
		line    string
		iters   int64
		metrics map[string]float64
	}{
		{
			name:    "custom units before standard ones",
			line:    "BenchmarkX-8 4 1.891 oracle-MB 225013141 ns/op 24.61 peakRSS-MB",
			iters:   4,
			metrics: map[string]float64{"oracle-MB": 1.891, "ns/op": 225013141, "peakRSS-MB": 24.61},
		},
		{
			name:    "single custom metric only",
			line:    "BenchmarkY 10 3.5 routes/op",
			iters:   10,
			metrics: map[string]float64{"routes/op": 3.5},
		},
		{
			name:    "scientific notation values",
			line:    "BenchmarkZ-16 1 2.5e+08 ns/op 1e-3 err-rate",
			iters:   1,
			metrics: map[string]float64{"ns/op": 2.5e8, "err-rate": 1e-3},
		},
		{
			name:    "no metrics at all",
			line:    "BenchmarkW 100",
			iters:   100,
			metrics: map[string]float64{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := parseBenchLine(tc.line)
			if err != nil {
				t.Fatalf("parseBenchLine(%q): %v", tc.line, err)
			}
			if res.Iterations != tc.iters {
				t.Errorf("iterations = %d, want %d", res.Iterations, tc.iters)
			}
			if len(res.Metrics) != len(tc.metrics) {
				t.Errorf("metrics = %v, want %v", res.Metrics, tc.metrics)
			}
			for unit, want := range tc.metrics {
				if got := res.Metrics[unit]; got != want {
					t.Errorf("metric %s = %v, want %v", unit, got, want)
				}
			}
		})
	}

	// Bare announce lines (go test's piped-output progress lines) are
	// skipped, not errors.
	input := "BenchmarkX\nBenchmarkX-8 4 10 ns/op\nPASS\n"
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse with announce line: %v", err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "BenchmarkX-8" {
		t.Errorf("results = %+v, want exactly the -8 result line", rep.Results)
	}
}

// TestParseMalformed is the fuzz-ish table over malformed bench output:
// every line must produce a clear error naming the problem (and never a
// panic), and parse() must attribute it to the offending line.
func TestParseMalformed(t *testing.T) {
	for _, tc := range []struct {
		line    string
		wantErr string
	}{
		{"BenchmarkX abc 1 ns/op", "not an integer"},
		{"BenchmarkX 1 abc ns/op", "expected a metric value"},
		{"BenchmarkX 1 5", "has no unit"},
		{"BenchmarkX 1 5 6", "has no unit"},
		{"BenchmarkX 1 5 ns/op 7", "has no unit"},
		{"BenchmarkX 1 ns/op 5", "expected a metric value"},
		{"BenchmarkX 1 5 ns/op oops 7 B/op", "expected a metric value"},
		{"BenchmarkX 1 5 ns/op 6 7 B/op", "has no unit"},
		{"BenchmarkX 1 NaN", "has no unit"}, // NaN parses as a value; unit missing
	} {
		res, err := parseBenchLine(tc.line)
		if err == nil {
			t.Errorf("parseBenchLine(%q) = %+v, want error", tc.line, res)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseBenchLine(%q) error = %q, want substring %q", tc.line, err, tc.wantErr)
		}
	}

	// parse() reports the line number of the malformed line.
	input := "goos: linux\nBenchmarkOK-8 1 5 ns/op\nBenchmarkBad 1 5\n"
	if _, err := parse(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("parse error = %v, want line 3 attribution", err)
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkHit-8":                       "BenchmarkHit",
		"BenchmarkHit":                         "BenchmarkHit",
		"BenchmarkHit/servers=1024/shards=4-8": "BenchmarkHit/servers=1024/shards=4",
		"BenchmarkHit/servers=1024":            "BenchmarkHit/servers=1024",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDiffBaseline pins the gate semantics: growth past the per-metric
// threshold (ns/op +100%, allocs/op and B/op +20%) regresses, improvements and
// unknown benchmarks don't, and a baseline sharing no names is a hard
// error.
func TestDiffBaseline(t *testing.T) {
	writeBaseline := func(t *testing.T, base Report) string {
		t.Helper()
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_base.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := Report{Results: []BenchResult{
		{Name: "BenchmarkA-4", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1000}},
		{Name: "BenchmarkB-4", Metrics: map[string]float64{"ns/op": 100}},
	}}
	path := writeBaseline(t, base)

	rep := &Report{Results: []BenchResult{
		// 2.5x slower: past the +100% wall-clock threshold. Different -N
		// suffix must still match.
		{Name: "BenchmarkA-8", Metrics: map[string]float64{"ns/op": 250, "allocs/op": 900}},
		// 80% slower: within the wall-clock threshold (noise headroom).
		{Name: "BenchmarkB-8", Metrics: map[string]float64{"ns/op": 180}},
		// Not in the baseline: skipped.
		{Name: "BenchmarkNew-8", Metrics: map[string]float64{"ns/op": 1e9}},
	}}
	regs, err := diffBaseline(rep, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA: ns/op") {
		t.Fatalf("regs = %v, want exactly the BenchmarkA ns/op regression", regs)
	}

	// Alloc regression gates too.
	rep.Results[0].Metrics = map[string]float64{"ns/op": 100, "allocs/op": 1300}
	regs, err = diffBaseline(rep, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("regs = %v, want the allocs/op regression", regs)
	}

	// Bytes gate at the same +20%: 15% more is within it, 30% is not.
	base.Results[0].Metrics["B/op"] = 1e6
	path = writeBaseline(t, base)
	rep.Results[0].Metrics = map[string]float64{"ns/op": 100, "allocs/op": 1000, "B/op": 1.15e6}
	regs, err = diffBaseline(rep, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want none: B/op +15%% is within the gate", regs)
	}
	rep.Results[0].Metrics["B/op"] = 1.3e6
	regs, err = diffBaseline(rep, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA: B/op") {
		t.Fatalf("regs = %v, want the B/op regression", regs)
	}

	// No shared names: hard error, not a silent pass.
	disjoint := &Report{Results: []BenchResult{
		{Name: "BenchmarkZ-8", Metrics: map[string]float64{"ns/op": 1}},
	}}
	if _, err := diffBaseline(disjoint, path); err == nil {
		t.Fatal("want an error when the baseline shares no benchmark names")
	}
}

// TestDiffBaselineBestOfN pins the -count=N semantics: repeated results
// collapse to the per-metric minimum on both sides, so one load-spiked
// sample among N cannot fake a regression, while a run whose best sample
// still exceeds the baseline's best by the threshold does regress.
func TestDiffBaselineBestOfN(t *testing.T) {
	base := Report{Results: []BenchResult{
		{Name: "BenchmarkA-4", Metrics: map[string]float64{"ns/op": 130}},
		{Name: "BenchmarkA-4", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkA-4", Metrics: map[string]float64{"ns/op": 160}},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// One sample 4x over baseline-best, but the best sample is clean.
	noisy := &Report{Results: []BenchResult{
		{Name: "BenchmarkA-8", Metrics: map[string]float64{"ns/op": 400}},
		{Name: "BenchmarkA-8", Metrics: map[string]float64{"ns/op": 105}},
	}}
	regs, err := diffBaseline(noisy, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want none: best-of-N 105 vs 100 is within threshold", regs)
	}

	// Every sample over threshold: a real regression survives the collapse.
	slow := &Report{Results: []BenchResult{
		{Name: "BenchmarkA-8", Metrics: map[string]float64{"ns/op": 230}},
		{Name: "BenchmarkA-8", Metrics: map[string]float64{"ns/op": 220}},
	}}
	regs, err = diffBaseline(slow, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA: ns/op") {
		t.Fatalf("regs = %v, want the BenchmarkA regression", regs)
	}
}
