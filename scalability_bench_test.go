package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/procstat"
	"repro/internal/scheduler"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scalability benchmarks back the paper's complexity claims: Algorithm 2's
// stable matching runs in O(M×N) (servers × containers) and the
// subsequent-wave greedy pass in O(n²). Each benchmark scales the cluster
// and reports scheduling wall time via the standard ns/op metric.

// benchJob builds a uniform job sized to the cluster.
func benchJob(maps, reduces int) *workload.Job {
	j := &workload.Job{ID: 0, NumMaps: maps, NumReduces: reduces, InputGB: float64(maps)}
	j.Shuffle = make([][]float64, maps)
	for m := range j.Shuffle {
		j.Shuffle[m] = make([]float64, reduces)
		for r := range j.Shuffle[m] {
			j.Shuffle[m][r] = 0.5
		}
	}
	j.MapComputeSec = make([]float64, maps)
	j.ReduceComputeSec = make([]float64, reduces)
	return j
}

// Every iteration schedules one job on a fresh fabric, cluster and
// controller. One untimed, unmeasured call comes first, so a scheduler
// that recycles its per-call state (core.HitScheduler) is measured warm at
// any b.N: B/op and allocs/op then do not depend on how many iterations
// amortize the first call's slab growth.
func benchSchedule(b *testing.B, s scheduler.Scheduler, build func() (*topology.Topology, error), maps, reduces int) {
	b.Helper()
	b.ReportAllocs()
	var ctl *controller.Controller
	prepare := func(seed int64) *scheduler.Request {
		topo, err := build()
		if err != nil {
			b.Fatal(err)
		}
		cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
		if err != nil {
			b.Fatal(err)
		}
		ctl = controller.New(topo)
		req, _, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{benchJob(maps, reduces)},
			cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(seed)))
		if err != nil {
			b.Fatal(err)
		}
		return req
	}
	b.StopTimer()
	if err := s.Schedule(prepare(-1)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		req := prepare(int64(i))
		b.StartTimer()
		if err := s.Schedule(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Footprint next to wall-clock: the oracle's cache census from the last
	// iteration (O(V) in structural mode) and the process peak RSS.
	ms := ctl.Oracle().MemoryStats()
	b.ReportMetric(float64(ms.ApproxBytes)/1e6, "oracle-MB")
	if rss, ok := procstat.PeakRSSBytes(); ok {
		b.ReportMetric(float64(rss)/1e6, "peakRSS-MB")
	}
}

// treeBuilder fixes NewTree's depth/fanout into a benchSchedule topology
// factory.
func treeBuilder(depth, fanout int) func() (*topology.Topology, error) {
	return func() (*topology.Topology, error) {
		return topology.NewTree(depth, fanout, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
	}
}

// BenchmarkHitScalability scales the cluster along two regimes:
//
//   - tree fanout 2/4/6 → 8/64/216 servers with task counts proportional to
//     servers (the paper's sweep, also the seed's);
//   - large rack-tree fabrics at 1024 (4-ary switch tree, 64 servers per
//     rack), 4096 (8-ary, 64 per rack) and 10000 servers (10-ary, 100 per
//     rack) with a fixed job (96 maps, 48 reduces — 4608 shuffle flows),
//     sized so a wave exercises the structural O(1) oracle and the dense
//     preference build rather than drowning in task count.
func BenchmarkHitScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		reduces := servers / 4
		if reduces < 1 {
			reduces = 1
		}
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			benchSchedule(b, &core.HitScheduler{}, treeBuilder(3, fanout), maps, reduces)
		})
	}
	b.Run("servers=1024", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 4, 64, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
	b.Run("servers=4096", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 8, 64, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
	b.Run("servers=10000", func(b *testing.B) {
		benchSchedule(b, &core.HitScheduler{}, func() (*topology.Topology, error) {
			return topology.NewTreeWithRacks(3, 10, 100, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
		}, 96, 48)
	})
}

// BenchmarkCapacityScalability is the baseline's cost for the same sweep.
func BenchmarkCapacityScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		reduces := servers / 4
		if reduces < 1 {
			reduces = 1
		}
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			benchSchedule(b, scheduler.Capacity{}, treeBuilder(3, fanout), maps, reduces)
		})
	}
}

// BenchmarkSubsequentWaveScalability measures §5.3.2's greedy map placement
// with reduces fixed (the O(n²) path).
func BenchmarkSubsequentWaveScalability(b *testing.B) {
	for _, fanout := range []int{2, 4, 6} {
		servers := fanout * fanout * fanout
		maps := servers / 2
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				topo, err := topology.NewTree(3, fanout, topology.LinkParams{Bandwidth: 1, SwitchCapacity: 1e9})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := cluster.New(topo, cluster.Resources{CPU: 2, Memory: 8192})
				if err != nil {
					b.Fatal(err)
				}
				ctl := controller.New(topo)
				job := benchJob(maps, servers/4+1)
				req, jt, err := scheduler.NewJobRequest(cl, ctl, []*workload.Job{job},
					cluster.Resources{CPU: 1, Memory: 512}, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				// Fix every reduce on a server, making this a pure
				// subsequent-wave request.
				srv := cl.Servers()
				for ri, c := range jt[0].Reduces {
					if err := cl.Place(c, srv[ri%len(srv)]); err != nil {
						b.Fatal(err)
					}
					req.Fixed[c] = true
				}
				b.StartTimer()
				if err := (&core.HitScheduler{}).Schedule(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
