// Command perfbench is the repository's end-to-end benchmark. It drives
// the program only through its public functions, over three workloads
// (see README.md), checks every output for correctness, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: the end-to-end metrics with -trace 0, the per-layer metrics of
// a separate traced pass with -trace 1.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload place-rack4096 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in golden.go.
const defaultSeed = 1

// setupRounds is how many times a pass builds every instance of a
// repetition before each timed repetition, timing each round, for the
// set-up median. Spreading the rounds over the pass samples the host's
// slow and fast spells alike.
const setupRounds = 5

// minReps is the fewest timed repetitions a pass makes, so that every
// instance's outputs are compared with a second serving of it.
const minReps = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // where the traced pass writes its CPU profile
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: place-rack4096, shuffle-tree64, faults-fattree128")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "time budget of the measured passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".", "directory for the traced pass's CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := bench(def, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: outputs do not match (see the report above)")
		return 1
	}
	return 0
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStats is what one pass of repeated runs measured.
type passStats struct {
	setup      []float64 // seconds per set-up round (all instances)
	runDur     []time.Duration
	flows      []int
	allocMB    []float64 // per repetition
	allocs     []float64 // per repetition
	gcCPU      float64   // share of CPU time the collector used while timed
	requests   []time.Duration
	ref        []outcome // each instance's outputs in the first repetition
	attempted  int
	failed     int
	mismatches int
}

func (p *passStats) flowsPerS() float64 { return pooledRate(p.flows, p.runDur) }

// cpuClocks reads the runtime's cumulative GC and total CPU seconds.
func cpuClocks() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// served is what serving one instance measured.
type served struct {
	out        outcome
	run        time.Duration
	allocBytes uint64
	mallocs    uint64
}

// setUp builds every instance of a repetition, each on a freshly collected
// heap, and returns the summed build time in seconds.
func setUp(def workloadDef, seed int64, tr *tracer) (float64, error) {
	var sec float64
	for k := 0; k < def.instances; k++ {
		runtime.GC()
		t0 := time.Now()
		_, err := def.build(instanceSeed(seed, k, def.instances), def.jobs, tr)
		sec += time.Since(t0).Seconds()
		if err != nil {
			return 0, fmt.Errorf("%s set-up: %w", def.name, err)
		}
	}
	return sec, nil
}

// serve builds one instance and serves it on a freshly collected heap.
func serve(def workloadDef, seed int64, tr *tracer) (served, error) {
	var sv served
	inst, err := def.build(seed, def.jobs, tr)
	if err != nil {
		return sv, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	sv.out, err = inst.run(tr)
	sv.run = time.Since(t1)
	runtime.ReadMemStats(&after)
	if err != nil {
		return sv, fmt.Errorf("%s run: %w", def.name, err)
	}
	sv.allocBytes = after.TotalAlloc - before.TotalAlloc
	sv.mallocs = after.Mallocs - before.Mallocs
	return sv, nil
}

// measure serves one discarded warm-up instance, then makes timed
// repetitions while the next one still fits in budget, which the whole
// pass shares (at least minReps are made). Each repetition starts with
// setupRounds untraced set-up rounds, then serves every instance of the
// workload in turn; each instance's outputs must equal those of its first
// repetition.
func measure(def workloadDef, seed int64, budget time.Duration, tr *tracer) (*passStats, error) {
	start := time.Now()
	ps := &passStats{}
	if _, err := serve(def, instanceSeed(seed, 0, def.instances), tr); err != nil {
		return nil, err
	}
	tr.spans, tr.requests = nil, nil
	tr.counters = make(map[string]float64)

	gc0, cpu0 := cpuClocks()
	var longest time.Duration // the slowest repetition so far
	for rep := 0; rep < minReps || time.Since(start)+longest <= budget; rep++ {
		t0 := time.Now()
		for r := 0; r < setupRounds; r++ {
			sec, err := setUp(def, seed, newTracer(false))
			if err != nil {
				return nil, err
			}
			ps.setup = append(ps.setup, sec)
		}
		var allocMB, allocs float64
		var dur time.Duration
		var flows int
		for k := 0; k < def.instances; k++ {
			sv, err := serve(def, instanceSeed(seed, k, def.instances), tr)
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				ps.ref = append(ps.ref, sv.out)
			} else if !sv.out.same(ps.ref[k]) {
				ps.mismatches++
			}
			dur += sv.run
			flows += sv.out.flows
			allocMB += float64(sv.allocBytes) / 1e6
			allocs += float64(sv.mallocs)
			ps.attempted += sv.out.attempted
			ps.failed += sv.out.failed
		}
		ps.runDur = append(ps.runDur, dur)
		ps.flows = append(ps.flows, flows)
		ps.allocMB = append(ps.allocMB, allocMB)
		ps.allocs = append(ps.allocs, allocs)
		longest = max(longest, time.Since(t0))
	}
	gc1, cpu1 := cpuClocks()
	if cpu1 > cpu0 {
		ps.gcCPU = (gc1 - gc0) / (cpu1 - cpu0)
	}
	ps.requests = tr.requests
	return ps, nil
}

// report collects the named values a run prints, in print order.
type report struct {
	names []string
	vals  map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.vals == nil {
		r.vals = make(map[string]metric)
	}
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
}

func (r *report) pick(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = r.vals[n]
	}
	return out
}

// bench measures def as cfg asks and prints the text report.
func bench(def workloadDef, cfg config, stdout io.Writer) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	host := readHostInfo()
	var rep report
	rep.set("host.mem_probe_ms_before", ms(memProbe()), "ms")
	rep.set("host.cpu_probe_ms_before", ms(cpuProbe()), "ms")

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2 // the other half goes to the traced pass
	}
	plain, err := measure(def, cfg.seed, budget, newTracer(false))
	if err != nil {
		return nil, err
	}
	var traced *passStats
	var tr *tracer
	var shares map[string]float64
	if cfg.trace {
		tr = newTracer(true)
		traced, shares, err = measureTraced(def, cfg, budget, tr)
		if err != nil {
			return nil, err
		}
	}
	rep.set("host.mem_probe_ms_after", ms(memProbe()), "ms")
	rep.set("host.cpu_probe_ms_after", ms(cpuProbe()), "ms")

	// Correctness: every repetition equals the first, both passes agree,
	// the default seed reproduces the recorded outputs, and the workload's
	// own check holds.
	mismatches := plain.mismatches
	attempted, failed := plain.attempted, plain.failed
	if traced != nil {
		mismatches += traced.mismatches
		attempted += traced.attempted
		failed += traced.failed
		for k := range traced.ref {
			if !traced.ref[k].same(plain.ref[k]) {
				mismatches++
			}
		}
	}
	total := sumOutcomes(plain.ref)
	goldenOK, goldenChecked := checkGolden(def.golden, cfg.seed, total)
	var checkErr error
	if def.check != nil {
		checkErr = def.check(total)
	}
	correct := mismatches == 0 && goldenOK && checkErr == nil

	endToEnd(&rep, plain, total)
	if traced != nil {
		perLayer(&rep, plain, traced, tr, shares)
	}
	rep.set("host.nproc", float64(host.nproc), "count")
	rep.set("host.gomaxprocs", float64(host.gomaxprocs), "count")

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d jobs=%d instances=%d seconds=%g trace=%v\n",
		def.name, cfg.seed, def.jobs, def.instances, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		host.nproc, host.gomaxprocs, host.goVersion, host.cpu)
	fmt.Fprintf(stdout, "outputs: flows=%d cost=%.6f GB-hop shuffle=%.6f GB jct_mean=%.6f T makespan=%.6f T digest=%016x\n",
		total.flows, total.cost, total.shuffleGB, total.jctMean, total.makespan, total.digest)
	fmt.Fprintf(stdout, "correctness: repetitions=%d mismatches=%d golden=%s check=%v failed=%d/%d\n",
		len(plain.runDur), mismatches, goldenState(goldenChecked, goldenOK), checkState(checkErr), failed, attempted)
	fmt.Fprintf(stdout, "golden: %s goldenOutputs{flows: %d, cost: %#x, jct: %#x, makespan: %#x, digest: %#x}\n",
		def.name, total.flows, math.Float64bits(total.cost), math.Float64bits(total.jctMean),
		math.Float64bits(total.makespan), total.digest)
	for _, n := range rep.names {
		m := rep.vals[n]
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}

	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: rep.pick(names)}, nil
}

func goldenState(checked, ok bool) string {
	switch {
	case !checked:
		return "not-recorded-for-this-seed"
	case ok:
		return "match"
	default:
		return "MISMATCH"
	}
}

func checkState(err error) string {
	if err != nil {
		return "FAILED: " + err.Error()
	}
	return "ok"
}

// measureTraced is the traced pass: spans, counters and a CPU profile.
func measureTraced(def workloadDef, cfg config, budget time.Duration, tr *tracer) (*passStats, map[string]float64, error) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("perfbench-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	ps, err := measure(def, cfg.seed, budget, tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	shares, err := cpuShares(path)
	if err != nil {
		return nil, nil, err
	}
	return ps, shares, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndNames and perLayerNames are the metrics the JSON line carries;
// they match BENCHMARK.json.
var endToEndNames = []string{"flows_per_s", "request_ms_p50", "request_ms_tail", "setup_s", "alloc_mb", "allocs"}

func endToEnd(rep *report, p *passStats, total outcome) {
	lat := millis(p.requests)
	t := tailOf(lat)
	rep.set("flows_per_s", p.flowsPerS(), "1/s")
	rep.set("request_ms_p50", median(lat), "ms")
	rep.set("request_ms_tail", t.value, "ms")
	rep.set("request_tail_pct", t.pct, "%")
	rep.set("request_samples", float64(t.samples), "count")
	rep.set("setup_s", median(p.setup), "s")
	rep.set("alloc_mb", median(p.allocMB), "MB")
	rep.set("allocs", median(p.allocs), "count")
	rep.set("shuffle_cost", total.cost, "GB-hop")
	rep.set("cost_per_gb", total.cost/math.Max(total.shuffleGB, 1e-12), "hop")
	rep.set("jct_mean", total.jctMean, "T")
	rep.set("shuffle_makespan", total.makespan, "T")
	rep.set("fail_frac", float64(p.failed)/math.Max(float64(p.attempted), 1), "ratio")
}

// perLayerNames lists the traced pass's metrics. Counts and times are per
// instance (one placement stream or one simulated batch); shares are of
// the traced pass's time.
var perLayerNames = []string{
	"topology.build_ms", "sim.new_ms", "workload.gen_ms",
	"core.schedule_ms_p50", "core.schedule_ms_tail", "core.calls", "core.schedule_share", "core.allocs_per_call",
	"core.cpu_share", "controller.cpu_share", "netstate.cpu_share", "stablematch.cpu_share",
	"topology.cpu_share", "cluster.cpu_share", "flow.cpu_share", "sim.cpu_share", "faults.cpu_share",
	"netsim.cpu_share", "bench.cpu_share", "gc.cpu_share",
	"netstate.route_hits", "netstate.route_misses", "netstate.route_hit_ratio", "netstate.oracle_mb",
	"sim.run_ms", "sim.self_ms", "netsim.transfers",
	"faults.events", "faults.rerouted_flows", "faults.dropped_flows", "faults.retries",
	"faults.spec_launched", "faults.reacted",
	"shuffle_cost", "cost_per_gb", "jct_mean", "shuffle_makespan", "fail_frac",
	"trace.flows_per_s", "trace.overhead",
	"host.mem_probe_ms_before", "host.mem_probe_ms_after", "host.cpu_probe_ms_before", "host.cpu_probe_ms_after",
	"host.nproc", "host.gomaxprocs",
}

// pprofLayers are the layers whose CPU share comes from the profile.
var pprofLayers = []string{"core", "controller", "netstate", "stablematch", "topology", "cluster", "flow", "sim", "faults", "netsim", "bench"}

func perLayer(rep *report, plain, traced *passStats, tr *tracer, shares map[string]float64) {
	tot := tr.totals()
	n := math.Max(tr.counters["instances"], 1)
	perInst := func(v float64) float64 { return v / n }
	var runSec float64
	for _, d := range traced.runDur {
		runSec += d.Seconds()
	}
	rep.set("topology.build_ms", 1e3*median(tr.spanDurations("topology.build")), "ms")
	rep.set("sim.new_ms", 1e3*median(tr.spanDurations("sim.new")), "ms")
	rep.set("workload.gen_ms", 1e3*median(tr.spanDurations("workload.gen")), "ms")

	lat := tr.spanDurations("core.Schedule")
	sched := tot["core.Schedule"]
	rep.set("core.schedule_ms_p50", 1e3*median(lat), "ms")
	rep.set("core.schedule_ms_tail", 1e3*tailOf(lat).value, "ms")
	rep.set("core.calls", perInst(float64(sched.count)), "count")
	rep.set("core.schedule_share", sched.total.Seconds()/runSec, "ratio")
	rep.set("core.allocs_per_call", tr.counters["core.allocs"]/math.Max(float64(sched.count), 1), "count")
	for _, layer := range pprofLayers {
		rep.set(layer+".cpu_share", shares[layer], "ratio")
	}
	rep.set("gc.cpu_share", traced.gcCPU, "ratio")

	hits, misses := tr.counters["netstate.route_hits"], tr.counters["netstate.route_misses"]
	rep.set("netstate.route_hits", perInst(hits), "count")
	rep.set("netstate.route_misses", perInst(misses), "count")
	rep.set("netstate.route_hit_ratio", hits/math.Max(hits+misses, 1), "ratio")
	rep.set("netstate.oracle_mb", perInst(tr.counters["netstate.oracle_mb"]), "MB")

	run := tot["sim.RunWithArrivals"]
	rep.set("sim.run_ms", perInst(run.total.Seconds()*1e3), "ms")
	rep.set("sim.self_ms", perInst(run.self.Seconds()*1e3), "ms")
	rep.set("netsim.transfers", perInst(tr.counters["netsim.transfers"]), "count")

	k := float64(len(traced.ref))
	fr := sumOutcomes(traced.ref).report
	rep.set("faults.events", float64(fr.Events)/k, "count")
	rep.set("faults.rerouted_flows", float64(fr.ReroutedFlows)/k, "count")
	rep.set("faults.dropped_flows", float64(len(fr.DroppedFlows))/k, "count")
	rep.set("faults.retries", float64(fr.Retries)/k, "count")
	rep.set("faults.spec_launched", float64(fr.SpeculativeLaunched)/k, "count")
	rep.set("faults.reacted", float64(fr.ReactedFaults)/k, "count")

	rep.set("trace.flows_per_s", traced.flowsPerS(), "1/s")
	rep.set("trace.overhead", plain.flowsPerS()/math.Max(traced.flowsPerS(), 1e-12), "ratio")
	for _, name := range sortedKeys(tot) {
		rep.set("span."+name+"_ms", perInst(tot[name].total.Seconds()*1e3), "ms")
	}
}
