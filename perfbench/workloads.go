package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// serverRes is every workload's per-server capacity (hitsim's default).
var serverRes = cluster.Resources{CPU: 4, Memory: 8192}

// outcome is what serving one instance produced. Every field is a pure
// function of the instance's inputs, so it must repeat bit for bit.
type outcome struct {
	flows     int // shuffle flows served (placed and routed, or simulated)
	attempted int // containers + flows + jobs the repetition asked for
	failed    int // unplaced containers, unrouted or dropped flows, failed jobs
	cost      float64
	shuffleGB float64
	jctMean   float64 // simulated T; zero in the placement workload
	makespan  float64 // simulated T; zero in the placement workload
	digest    uint64  // FNV-1a over every placement and route
	report    sim.RunReport
}

// same reports whether two repetitions produced identical outputs.
func (o outcome) same(p outcome) bool {
	return o.flows == p.flows && o.attempted == p.attempted && o.failed == p.failed &&
		math.Float64bits(o.cost) == math.Float64bits(p.cost) &&
		math.Float64bits(o.shuffleGB) == math.Float64bits(p.shuffleGB) &&
		math.Float64bits(o.jctMean) == math.Float64bits(p.jctMean) &&
		math.Float64bits(o.makespan) == math.Float64bits(p.makespan) &&
		o.digest == p.digest
}

// sumOutcomes folds the outcomes of a repetition's instances: counts and
// costs add up, simulated times are averaged, the digests are hashed in
// instance order, and the fault counts the per-layer table reports add up.
func sumOutcomes(outs []outcome) outcome {
	var t outcome
	h := fnv.New64a()
	for _, o := range outs {
		t.flows += o.flows
		t.attempted += o.attempted
		t.failed += o.failed
		t.cost += o.cost
		t.shuffleGB += o.shuffleGB
		t.jctMean += o.jctMean / float64(len(outs))
		t.makespan += o.makespan / float64(len(outs))
		writeInts(h, int(o.digest))
		r := &t.report
		r.Events += o.report.Events
		r.ReroutedFlows += o.report.ReroutedFlows
		r.DroppedFlows = append(r.DroppedFlows, o.report.DroppedFlows...)
		r.Retries += o.report.Retries
		r.SpeculativeLaunched += o.report.SpeculativeLaunched
		r.ReactedFaults += o.report.ReactedFaults
	}
	t.digest = h.Sum64()
	return t
}

// instance is one input's freshly built state; run serves it once.
type instance interface {
	run(tr *tracer) (outcome, error)
}

// workloadDef names a workload and builds its instances. A repetition
// serves `instances` independent instances of `jobs` jobs each, every one
// with its own seed drawn from the run's seed, so one run averages over
// several inputs. golden holds the outputs recorded for the default seed
// (nil for none), and check, when set, is a further condition a
// repetition's summed outputs must meet. The smoke test passes smaller
// sizes without golden values.
type workloadDef struct {
	name      string
	jobs      int
	instances int
	build     func(seed int64, jobs int, tr *tracer) (instance, error)
	golden    *goldenOutputs
	check     func(total outcome) error
}

var workloads = []workloadDef{
	{name: "place-rack4096", jobs: 24, instances: 2, build: buildPlace, golden: &goldenPlace},
	{name: "shuffle-tree64", jobs: 24, instances: 16, build: buildShuffle, golden: &goldenShuffle},
	{name: "faults-fattree128", jobs: 16, instances: 12, build: buildFaults, golden: &goldenFaults, check: checkRerouted},
}

// instanceSeed is the seed of instance k of a run seeded with seed; the
// instances of distinct run seeds never share a seed.
func instanceSeed(seed int64, k, instances int) int64 {
	return seed*int64(instances) + int64(k)
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// genJobs draws n mixed Table-1 jobs from the generator, stratified so
// that every seed gets the same benchmark mix and the same spread of input
// sizes for each benchmark: each benchmark receives its Table-1 share of
// the n jobs (largest remainder first), and a benchmark's c jobs take
// their input sizes one from each of c equal slices of the generator's
// range. The seed places each size within its slice, orders the jobs and
// drives the generator's own draws, so a run's figures do not hinge on
// how many heavy jobs one seed drew or which benchmarks drew the large
// inputs.
func genJobs(seed int64, n, maxMaps int, tr *tracer) ([]*workload.Job, error) {
	defer tr.begin("workload.gen").end()
	cfg := workload.DefaultConfig()
	cfg.MaxMaps = maxMaps
	gen, err := workload.NewGenerator(cfg, seed)
	if err != nil {
		return nil, err
	}
	type draw struct {
		name   string
		sizeGB float64
	}
	rng := rand.New(rand.NewSource(seed))
	var draws []draw
	counts := tableMix(n)
	for i, b := range workload.Catalog() {
		c := counts[i]
		for k := 0; k < c; k++ {
			frac := (float64(k) + rng.Float64()) / float64(c)
			draws = append(draws, draw{b.Name, cfg.MinInputGB + frac*(cfg.MaxInputGB-cfg.MinInputGB)})
		}
	}
	rng.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	jobs := make([]*workload.Job, len(draws))
	for i, d := range draws {
		if jobs[i], err = gen.Job(d.name, d.sizeGB); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// tableMix apportions n jobs among the catalog's benchmarks by their
// Table-1 shares, largest remainder first (ties in catalog order), and
// returns the counts in catalog order.
func tableMix(n int) []int {
	cat := workload.Catalog()
	var total float64
	for _, b := range cat {
		total += b.Share
	}
	counts := make([]int, len(cat))
	rem := make([]float64, len(cat))
	left := n
	for i, b := range cat {
		exact := b.Share / total * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(cat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// timedScheduler wraps the Hit scheduler: a traced pass gets a span and
// the oracle's route-cache counters around every Schedule call, also the
// ones sim makes inside a run, and every pass digests the decisions.
type timedScheduler struct {
	inner  scheduler.Scheduler
	tr     *tracer
	digest hash.Hash64
}

func newTimedScheduler(tr *tracer) *timedScheduler {
	return &timedScheduler{inner: &core.HitScheduler{}, tr: tr, digest: fnv.New64a()}
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(req *scheduler.Request) error {
	var h0, m0, a0 uint64
	if s.tr.on {
		h0, m0 = req.Controller.Oracle().PairRouteStats()
		a0 = heapAllocs()
	}
	sp := s.tr.begin("core.Schedule")
	err := s.inner.Schedule(req)
	sp.end()
	if s.tr.on {
		s.tr.add("core.allocs", float64(heapAllocs()-a0))
		h1, m1 := req.Controller.Oracle().PairRouteStats()
		s.tr.add("netstate.route_hits", float64(h1-h0))
		s.tr.add("netstate.route_misses", float64(m1-m0))
	}
	if err != nil {
		return err
	}
	// Digest the decisions: every placement and every installed route.
	for _, t := range req.Tasks {
		writeInts(s.digest, int(t.Container), int(req.Cluster.Container(t.Container).Server()))
	}
	for _, f := range req.Flows {
		writeInts(s.digest, int(f.ID))
		if pol := req.Controller.Policy(f.ID); pol != nil {
			for _, w := range pol.List {
				writeInts(s.digest, int(w))
			}
		}
	}
	return nil
}

// ---- place-rack4096: the online placement service ----

const (
	placeWindow = 16 // jobs whose containers stay placed behind each request
)

var placeDemand = cluster.Resources{CPU: 1, Memory: 1024}

type placeInstance struct {
	cl    *cluster.Cluster
	ctl   *controller.Controller
	jobs  []*workload.Job
	seed  int64
	sched *timedScheduler
}

func buildPlace(seed int64, n int, tr *tracer) (instance, error) {
	sp := tr.begin("topology.build")
	topo, err := topology.NewTreeWithRacks(3, 8, 64, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 48})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.new")
	cl, err := cluster.New(topo, serverRes)
	ctl := controller.New(topo)
	sp.end()
	if err != nil {
		return nil, err
	}
	jobs, err := genJobs(seed, n, 64, tr)
	if err != nil {
		return nil, err
	}
	return &placeInstance{cl: cl, ctl: ctl, jobs: jobs, seed: seed,
		sched: newTimedScheduler(tr)}, nil
}

func (p *placeInstance) run(tr *tracer) (outcome, error) {
	var out outcome
	rng := rand.New(rand.NewSource(p.seed))
	var window [][]cluster.ContainerID
	for _, job := range p.jobs {
		t0 := time.Now()
		sp := tr.begin("scheduler.NewJobRequest")
		req, _, err := scheduler.NewJobRequest(p.cl, p.ctl, []*workload.Job{job}, placeDemand, rng)
		sp.end()
		if err != nil {
			return out, err
		}
		if err := p.sched.Schedule(req); err != nil {
			return out, fmt.Errorf("job %d: %w", job.ID, err)
		}
		// Every container must be placed and every flow must hold a policy.
		out.attempted += len(req.Tasks) + len(req.Flows)
		cts := make([]cluster.ContainerID, 0, len(req.Tasks))
		for _, t := range req.Tasks {
			if !p.cl.Container(t.Container).Placed() {
				out.failed++
			}
			cts = append(cts, t.Container)
		}
		for _, f := range req.Flows {
			if p.ctl.Policy(f.ID) == nil {
				out.failed++
				continue
			}
			out.flows++
			out.shuffleGB += f.SizeGB
		}
		sp = tr.begin("controller.TotalCost")
		cost, err := p.ctl.TotalCost(req.Flows, req.Locator())
		sp.end()
		if err != nil {
			return out, err
		}
		out.cost += cost
		// Flow IDs restart at 0 in every request, so a request's policies
		// are uninstalled before the next one, as sim does after a wave.
		sp = tr.begin("controller.Uninstall")
		for _, f := range req.Flows {
			p.ctl.Uninstall(f.ID)
		}
		sp.end()
		window = append(window, cts)
		if len(window) > placeWindow {
			for _, c := range window[0] {
				if err := p.cl.Unplace(c); err != nil {
					return out, err
				}
			}
			window = window[1:]
		}
		tr.requests = append(tr.requests, time.Since(t0))
	}
	out.digest = p.sched.digest.Sum64()
	countInstance(tr, p.ctl)
	return out, nil
}

// ---- shuffle-tree64 and faults-fattree128: whole hitsim-style runs ----

type simInstance struct {
	eng   *sim.Engine
	jobs  []*workload.Job
	sched *timedScheduler
}

func buildSim(seed int64, jobs []*workload.Job, topo *topology.Topology, res cluster.Resources, plan *faults.Plan, tr *tracer) (instance, error) {
	sp := tr.begin("sim.new")
	ts := newTimedScheduler(tr)
	eng, err := sim.New(topo, res, ts, sim.Options{Seed: seed, Faults: plan})
	sp.end()
	if err != nil {
		return nil, err
	}
	return &simInstance{eng: eng, jobs: jobs, sched: ts}, nil
}

func buildShuffle(seed int64, n int, tr *tracer) (instance, error) {
	sp := tr.begin("topology.build")
	topo, err := topology.NewTree(3, 4, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 48})
	sp.end()
	if err != nil {
		return nil, err
	}
	jobs, err := genJobs(seed, n, 16, tr)
	if err != nil {
		return nil, err
	}
	return buildSim(seed, jobs, topo, serverRes, nil, tr)
}

func buildFaults(seed int64, n int, tr *tracer) (instance, error) {
	sp := tr.begin("topology.build")
	topo, err := topology.NewFatTree(8, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 192})
	sp.end()
	if err != nil {
		return nil, err
	}
	jobs, err := genJobs(seed, n, 16, tr)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("faults.GenerateTimeline")
	plan := &faults.Plan{
		Events: faultTimeline(rand.New(rand.NewSource(seed)), topo),
		Tasks: faults.TaskModel{
			FailureProb: 0.05, RetryBudget: 6, StragglerProb: 0.1,
			Speculation: true, Seed: uint64(seed),
		},
	}
	sp.end()
	return buildSim(seed, jobs, topo, cluster.Resources{CPU: 2, Memory: 4096}, plan, tr)
}

// The fabric timeline of faults-fattree128: rolling drains of half the
// upper fabric, under random link and access-switch degradations.
const (
	drainPeriod = 20.0 // T from one drain's start to the next one's
	drainDown   = 15.0 // T a drained half stays down
	drainCount  = 30   // 600 T of drains, about the longest instance's shuffles
)

// faultTimeline draws the workload's fabric events. Random switch crashes
// reroute flows only when they hit a switch that the current wave's
// policies happen to cross, which on some seeds never happens. So the
// crashes are rolling drains instead: the fabric planes (see fabricPlanes)
// are split into two halves, and the halves go down in turn, one at a
// time, starting at a seeded offset within each period. Whole planes go
// down together, so no live switch is ever cut off. GenerateTimeline adds
// link and switch degradations; those on upper-tier switches are left
// out, because their SwitchRecover would revive a drained switch.
func faultTimeline(rng *rand.Rand, topo *topology.Topology) []faults.Event {
	var evs []faults.Event
	for _, ev := range faults.GenerateTimeline(rng, topo, faults.Spec{
		Horizon: 200, Rate: 8, Severity: 0.6, MTTR: 20, SwitchDegradeW: 2, LinkDegradeW: 1,
	}) {
		if (ev.Kind == faults.SwitchDegrade || ev.Kind == faults.SwitchRecover) && topo.Node(ev.Node).Tier > 0 {
			continue
		}
		evs = append(evs, ev)
	}
	planes := fabricPlanes(topo)
	for i := 0; i < drainCount; i++ {
		t := drainPeriod*float64(i) + rng.Float64()*(drainPeriod-drainDown)
		for p := i % 2; p < len(planes); p += 2 {
			for _, w := range planes[p] {
				evs = append(evs,
					faults.Event{Time: t, Kind: faults.SwitchCrash, Node: w},
					faults.Event{Time: t + drainDown, Kind: faults.SwitchRecover, Node: w})
			}
		}
	}
	faults.SortEvents(evs)
	return evs
}

// fabricPlanes groups the switches above the access tier into the
// connected components of the links among them, in order of their lowest
// switch. In a k-ary fat-tree these are the k/2 planes: aggregation switch
// a of every pod together with core group a.
func fabricPlanes(topo *topology.Topology) [][]topology.NodeID {
	upper := func(w topology.NodeID) bool {
		n := topo.Node(w)
		return n.IsSwitch() && n.Tier > 0
	}
	root := make(map[topology.NodeID]topology.NodeID)
	var find func(w topology.NodeID) topology.NodeID
	find = func(w topology.NodeID) topology.NodeID {
		r, ok := root[w]
		if !ok || r == w {
			return w
		}
		r = find(r)
		root[w] = r
		return r
	}
	for _, l := range topo.Links() {
		if upper(l.A) && upper(l.B) {
			a, b := find(l.A), find(l.B)
			root[max(a, b)] = min(a, b)
		}
	}
	var planes [][]topology.NodeID
	index := make(map[topology.NodeID]int)
	for _, w := range topo.Switches() {
		if !upper(w) {
			continue
		}
		r := find(w)
		i, ok := index[r]
		if !ok {
			i = len(planes)
			index[r] = i
			planes = append(planes, nil)
		}
		planes[i] = append(planes[i], w)
	}
	return planes
}

// checkRerouted fails a faults-fattree128 repetition in which no flow was
// rerouted: the workload is there to run the reactor's rerouting.
func checkRerouted(total outcome) error {
	if total.report.ReroutedFlows == 0 {
		return fmt.Errorf("no flow was rerouted")
	}
	return nil
}

func (s *simInstance) run(tr *tracer) (outcome, error) {
	var out outcome
	sp := tr.begin("sim.RunWithArrivals")
	t0 := time.Now()
	res, err := s.eng.RunWithArrivals(s.jobs, nil)
	tr.requests = append(tr.requests, time.Since(t0))
	sp.end()
	if err != nil {
		return out, err
	}
	for _, js := range res.Jobs {
		out.attempted++
		if js.Failed {
			out.failed++
		}
		out.shuffleGB += js.ShuffleBytes
	}
	out.flows = res.NumFlows
	out.attempted += res.NumFlows + s.eng.Cluster().NumContainers()
	if res.Report != nil {
		out.failed += len(res.Report.DroppedFlows)
		out.report = *res.Report
	}
	out.cost = res.TotalTrafficCost
	out.jctMean = res.JCT.Mean()
	out.makespan = res.ShuffleMakespan
	out.digest = s.sched.digest.Sum64()
	countInstance(tr, s.eng.Controller())
	tr.add("netsim.transfers", float64(res.NumFlows))
	return out, nil
}

// countInstance records, in a traced pass, one served instance and the
// size of its oracle's caches at the end.
func countInstance(tr *tracer, ctl *controller.Controller) {
	if !tr.on {
		return
	}
	tr.add("instances", 1)
	tr.add("netstate.oracle_mb", float64(ctl.Oracle().MemoryStats().ApproxBytes)/1e6)
}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func writeInts(h hash.Hash64, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash never returns an error
	}
}
