package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Tests of the runState a HitScheduler recycles across Schedule calls:
// reuse must be invisible (bit-identical to a fresh scheduler, whatever
// the previous call scheduled), safe under concurrent calls, and
// allocation-free enough to pin with a ceiling.

// recycleWorld is one placement service: a cluster and controller that
// serve a sequence of jobs.
type recycleWorld struct {
	cl  *cluster.Cluster
	ctl *controller.Controller
}

// recycleTopologies are the fabrics the tests alternate between: a
// single-homed rack tree (anchored fast path, structural rows), a healthy
// fat-tree, and a fat-tree with a crashed core (memoized BFS rows).
var recycleTopologies = []struct {
	name  string
	build func() (*topology.Topology, error)
}{
	{"racktree", func() (*topology.Topology, error) {
		return topology.NewTreeWithRacks(3, 2, 16, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 400})
	}},
	{"fattree", func() (*topology.Topology, error) {
		return topology.NewFatTree(6, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 400})
	}},
	{"fattree-degraded", func() (*topology.Topology, error) {
		topo, err := topology.NewFatTree(6, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 400})
		if err != nil {
			return nil, err
		}
		return topo, topo.SetNodeAlive(topo.Switches()[0], false) // core0
	}},
}

func newRecycleWorld(t *testing.T, build func() (*topology.Topology, error)) *recycleWorld {
	t.Helper()
	topo, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 4, Memory: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return &recycleWorld{cl: cl, ctl: controller.New(topo)}
}

// recycleJob draws a job with random shuffle volumes.
func recycleJob(seed int64, maps, reduces int) *workload.Job {
	rng := rand.New(rand.NewSource(seed))
	job := &workload.Job{ID: int(seed), NumMaps: maps, NumReduces: reduces, InputGB: float64(maps)}
	job.Shuffle = make([][]float64, maps)
	for i := range job.Shuffle {
		job.Shuffle[i] = make([]float64, reduces)
		for k := range job.Shuffle[i] {
			job.Shuffle[i][k] = rng.Float64() * 4
		}
	}
	job.MapComputeSec = make([]float64, maps)
	job.ReduceComputeSec = make([]float64, reduces)
	return job
}

type recycleOutcome struct {
	placements []topology.NodeID
	routes     [][]topology.NodeID
	costBits   uint64
}

// serve schedules one job on w with s, records the outcome, and releases
// the job (policies uninstalled, containers unplaced) so the world can
// serve the next one.
func (w *recycleWorld) serve(s scheduler.Scheduler, job *workload.Job, seed int64) (recycleOutcome, error) {
	var out recycleOutcome
	req, _, err := scheduler.NewJobRequest(w.cl, w.ctl, []*workload.Job{job},
		cluster.Resources{CPU: 1, Memory: 1024}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return out, err
	}
	if err := s.Schedule(req); err != nil {
		return out, err
	}
	for _, task := range req.Tasks {
		out.placements = append(out.placements, w.cl.Container(task.Container).Server())
	}
	for _, f := range req.Flows {
		var route []topology.NodeID
		if p := w.ctl.Policy(f.ID); p != nil {
			route = append(route, p.List...)
		}
		out.routes = append(out.routes, route)
	}
	cost, err := w.ctl.TotalCost(req.Flows, req.Locator())
	if err != nil {
		return out, err
	}
	out.costBits = math.Float64bits(cost)
	for _, f := range req.Flows {
		w.ctl.Uninstall(f.ID)
	}
	for _, task := range req.Tasks {
		if err := w.cl.Unplace(task.Container); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (w *recycleWorld) mustServe(t *testing.T, s scheduler.Scheduler, job *workload.Job, seed int64) recycleOutcome {
	t.Helper()
	out, err := w.serve(s, job, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameOutcome(t *testing.T, what string, got, want recycleOutcome) {
	t.Helper()
	if len(got.placements) != len(want.placements) || len(got.routes) != len(want.routes) {
		t.Fatalf("%s: shape differs: %d/%d placements, %d/%d routes", what,
			len(got.placements), len(want.placements), len(got.routes), len(want.routes))
	}
	for i := range got.placements {
		if got.placements[i] != want.placements[i] {
			t.Fatalf("%s: placement %d = %d, fresh scheduler %d", what, i, got.placements[i], want.placements[i])
		}
	}
	for i := range got.routes {
		a, b := got.routes[i], want.routes[i]
		if len(a) != len(b) {
			t.Fatalf("%s: route %d = %v, fresh scheduler %v", what, i, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s: route %d = %v, fresh scheduler %v", what, i, a, b)
			}
		}
	}
	if got.costBits != want.costBits {
		t.Fatalf("%s: total cost bits %x, fresh scheduler %x", what, got.costBits, want.costBits)
	}
}

// TestRecycledStateMatchesFresh drives ONE HitScheduler alternately over a
// rack tree, a fat-tree and a degraded fat-tree, job after job, and checks
// every outcome is bit-identical to a fresh scheduler's on a twin world.
// Fresh topologies share (Version, LivenessVersion), so a distance-row
// memo, preference memo or matcher memo leaking from one call into the
// next would show here.
func TestRecycledStateMatchesFresh(t *testing.T) {
	shared := &core.HitScheduler{}
	var recycled, fresh []*recycleWorld
	for _, tp := range recycleTopologies {
		recycled = append(recycled, newRecycleWorld(t, tp.build))
		fresh = append(fresh, newRecycleWorld(t, tp.build))
	}
	for round := int64(0); round < 3; round++ {
		for k, tp := range recycleTopologies {
			seed := 10*round + int64(k) + 1
			job := recycleJob(seed, 8+int(round)*2, 4+int(round))
			got := recycled[k].mustServe(t, shared, job, seed)
			want := fresh[k].mustServe(t, &core.HitScheduler{}, job, seed)
			sameOutcome(t, tp.name, got, want)
		}
	}

	// Twin clusters number their containers alike, and one request seed
	// draws one initial placement on both: consecutive calls then see the
	// same containers, servers and slab offsets, and differ only in the
	// shuffle volumes — a preference or matcher memo surviving the call
	// would be replayed wrongly.
	for v := int64(1); v <= 4; v++ {
		job := recycleJob(1000+v, 8, 4)
		got := newRecycleWorld(t, recycleTopologies[0].build).mustServe(t, shared, job, 7)
		want := newRecycleWorld(t, recycleTopologies[0].build).mustServe(t, &core.HitScheduler{}, job, 7)
		sameOutcome(t, "twin racktree", got, want)
	}
}

// TestConcurrentScheduleDistinctClusters runs two Schedule calls of ONE
// HitScheduler at once on distinct clusters (one call takes the recycled
// state, the other builds its own) and checks both against fresh
// sequential runs. Under -race this is the data-race check for the
// recycled state.
func TestConcurrentScheduleDistinctClusters(t *testing.T) {
	shared := &core.HitScheduler{}
	const rounds = 4
	got := make([][]recycleOutcome, 2)
	errs := make([]error, 2)
	worlds := []*recycleWorld{
		newRecycleWorld(t, recycleTopologies[0].build),
		newRecycleWorld(t, recycleTopologies[1].build),
	}
	var wg sync.WaitGroup
	for g := range worlds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := int64(0); r < rounds; r++ {
				seed := 100*int64(g) + r + 1
				out, err := worlds[g].serve(shared, recycleJob(seed, 10, 5), seed)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], out)
			}
		}(g)
	}
	wg.Wait()
	for g := range worlds {
		if errs[g] != nil {
			t.Fatalf("%s: %v", recycleTopologies[g].name, errs[g])
		}
		ref := newRecycleWorld(t, recycleTopologies[g].build)
		for r := int64(0); r < rounds; r++ {
			seed := 100*int64(g) + r + 1
			want := ref.mustServe(t, &core.HitScheduler{}, recycleJob(seed, 10, 5), seed)
			sameOutcome(t, recycleTopologies[g].name, got[g][r], want)
		}
	}
}

// warmScheduleAllocCeiling bounds the allocations of one warm Schedule
// call in TestWarmScheduleAllocationCeiling: about 1.25× the measured
// count (1596 allocations measured on linux/amd64, 2 CPUs). What remains is
// proportional to the flow count — each flow's Policy values (the random
// initial policy and one per Algorithm-1 solve) — not to servers ×
// containers.
const warmScheduleAllocCeiling = 2000

// TestWarmScheduleAllocationCeiling pins the allocation-free steady state:
// a warm 512-server Schedule — the scheduler's recycled state and the
// oracle's caches already sized by an identical earlier call — stays under
// warmScheduleAllocCeiling allocations.
func TestWarmScheduleAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	topo, err := topology.NewTree(3, 8, topology.LinkParams{Bandwidth: 10, SwitchCapacity: topology.InfiniteCapacity})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(topo)
	req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{recycleJob(3, 16, 8)},
		cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := &core.HitScheduler{}
	var runErr error
	run := func() {
		req.Rand.Seed(7) // identical draws: every call is the same call
		if err := h.Schedule(req); err != nil && runErr == nil {
			runErr = err
		}
		for _, f := range req.Flows {
			ctl.Uninstall(f.ID)
		}
		for _, task := range req.Tasks {
			if err := cl.Unplace(task.Container); err != nil && runErr == nil {
				runErr = err
			}
		}
	}
	run() // warm up
	allocs := testing.AllocsPerRun(5, run)
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("warm 512-server Schedule: %.0f allocations (%d flows)", allocs, len(req.Flows))
	if allocs > warmScheduleAllocCeiling {
		t.Fatalf("warm Schedule made %.0f allocations, ceiling %d", allocs, warmScheduleAllocCeiling)
	}
}
