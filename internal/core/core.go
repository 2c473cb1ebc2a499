// Package core implements the paper's primary contribution: Hit-Scheduler,
// the Hierarchical-topology-aware MapReduce scheduler that jointly optimizes
// task assignment and network policy to minimize total shuffle traffic cost
// (the TAA problem of §3–4).
//
// The solution follows §5's separated optimization strategy:
//
//  1. Every flow starts from a random placement and a random policy.
//  2. Policy optimization (Algorithm 1) finds each flow's minimum-cost typed
//     switch route given current placements, and — by also exploring the
//     candidate servers of both endpoint containers (Figure 5's layered
//     flow-path graph) — accumulates a preference matrix P(server,
//     container) grading how much each server wants each container.
//  3. Task assignment (Algorithm 2) runs a modified many-to-one Gale–Shapley
//     matching between containers (ranking servers by the utility of moving
//     there, Eq. 10) and servers (ranking containers by the preference
//     matrix), respecting server capacities.
//  4. Policies are re-optimized for the new placement; the loop repeats
//     until the total cost stops improving.
//
// Wave structure (§5.3): when every Reduce container is already fixed (maps
// arriving in later waves), the scheduler switches to the greedy O(n²)
// subsequent-wave strategy: heaviest shuffle producers are paired with the
// lowest-delay feasible servers.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/multisched"
	"repro/internal/parallel"
	"repro/internal/scheduler"
	"repro/internal/stablematch"
	"repro/internal/supervise"
	"repro/internal/topology"
	"repro/internal/workload"
)

// HitScheduler implements scheduler.Scheduler with the paper's joint
// optimization. The zero value uses the defaults below; the ablation fields
// turn individual mechanisms off for the design-choice benchmarks.
type HitScheduler struct {
	// MaxIterations bounds the joint policy/assignment rounds. Zero selects
	// the default of 4; negative values are rejected by Schedule.
	MaxIterations int
	// Epsilon is the relative cost-improvement threshold below which the
	// loop stops. Zero selects the default of 1e-6; negative values are
	// rejected by Schedule.
	Epsilon float64
	// DisablePolicyOpt skips Algorithm 1's per-flow route optimization
	// (policies stay on their initial random routes). Ablation only.
	DisablePolicyOpt bool
	// DisableStableMatching replaces Algorithm 2 with per-container greedy
	// best-utility moves. Ablation only.
	DisableStableMatching bool
	// DisableIncremental turns off the dirty-set reuse across joint
	// iterations: every round then re-solves Algorithm 1 for every flow and
	// rebuilds every preference row from scratch. Results are bit-identical
	// either way (the incremental path only skips work it can prove is a
	// no-op), so this switch exists for parity tests and perf comparison.
	DisableIncremental bool
	// Shards > 1 runs the wave through the sharded optimistic scheduler
	// (internal/multisched): candidate scans, Algorithm-1 presolves and the
	// preference build fan out over up to Shards goroutines organized by
	// topology cell, and a deterministic arbiter commits in sequential flow
	// order. Output is Float64bits-identical to Shards <= 1 at any shard
	// count (DESIGN.md §10); with Shards <= 1 the sequential code paths run
	// byte-for-byte unchanged.
	Shards int
	// Workers caps the fan-out of the parallel inner phases (preference
	// build, stable-match validation). Zero derives the cap from Shards
	// when sharded, else from GOMAXPROCS exactly as before — set it only
	// to keep a sharded scheduler from oversubscribing shared cores.
	Workers int
	// Supervisor, when non-nil, is the resilience runtime threaded through
	// the sharded service (internal/supervise): panic isolation, operation
	// budgets, conflict-storm degradation, and — for the chaos harness —
	// deterministic scheduler-internal fault injection. Sharing one
	// Supervisor across Schedule calls lets its hysteresis span waves;
	// nil gives each Schedule call a fresh default supervisor. Sequential
	// runs (Shards <= 1) never consult it. Under every supervised failure
	// mode the output stays Float64bits-identical to sequential — the
	// supervisor only ever redirects flows onto the sequential replay
	// path, never changes a value.
	Supervisor *supervise.Supervisor

	// spare is the runState recycled across Schedule calls (see runState).
	spare atomic.Pointer[runState]
}

// fanout resolves the inner-phase worker cap: an explicit Workers wins,
// a sharded run reuses its shard budget, and the sequential default (0,
// meaning GOMAXPROCS inside parallel.ForEach) stays as it always was.
func (h *HitScheduler) fanout() int {
	if h.Workers > 0 {
		return h.Workers
	}
	if h.Shards > 1 {
		return h.Shards
	}
	return 0
}

// Name implements scheduler.Scheduler.
func (h *HitScheduler) Name() string { return "hit" }

func (h *HitScheduler) maxIterations() int {
	if h.MaxIterations <= 0 {
		return 4
	}
	return h.MaxIterations
}

func (h *HitScheduler) epsilon() float64 {
	if h.Epsilon <= 0 {
		return 1e-6
	}
	return h.Epsilon
}

// incremental reports whether the dirty-set reuse is active. It is off
// under DisablePolicyOpt too: that ablation reinstalls random policies, and
// skipping any of those draws would shift the shared RNG stream.
func (h *HitScheduler) incremental() bool {
	return !h.DisableIncremental && !h.DisablePolicyOpt
}

// Schedule implements scheduler.Scheduler. Negative MaxIterations or
// Epsilon are configuration errors and are rejected up front; zero values
// select the documented defaults (4 iterations, 1e-6).
func (h *HitScheduler) Schedule(req *scheduler.Request) error {
	if h.MaxIterations < 0 {
		return fmt.Errorf("core: HitScheduler.MaxIterations must be non-negative, got %d (zero selects the default of 4)", h.MaxIterations)
	}
	if h.Epsilon < 0 {
		return fmt.Errorf("core: HitScheduler.Epsilon must be non-negative, got %g (zero selects the default of 1e-6)", h.Epsilon)
	}
	if err := req.Validate(); err != nil {
		return err
	}
	st := h.spare.Swap(nil)
	if st == nil {
		st = newRunState() // first call, or another call holds the spare
	}
	err := h.schedule(req, st)
	st.reset()
	h.spare.Store(st)
	return err
}

// schedule is Schedule's body over a validated request and a reset
// runState.
func (h *HitScheduler) schedule(req *scheduler.Request, st *runState) error {
	movable := h.movableTasks(req)
	flows := req.Flows

	// The sharded service (nil when Shards <= 1, which leaves every
	// sequential code path below byte-for-byte untouched).
	var ms *multisched.Service
	if h.Shards > 1 {
		ms = multisched.NewSupervised(req.Controller, req.Cluster, h.Shards, h.Supervisor)
	}

	var report *scheduler.ScheduleReport
	if req.Degraded {
		report = req.Report
		if report == nil {
			report = &scheduler.ScheduleReport{}
			req.Report = report
		}
	}

	// §5.3.1: random initial assignment for every unplaced container. In
	// degraded mode a container with no feasible server is reported and
	// skipped (with its flows) instead of aborting the wave.
	dropped := make(map[cluster.ContainerID]bool)
	if ms != nil {
		if err := h.placeInitialSharded(ms, req, movable, report, dropped); err != nil {
			return err
		}
	} else {
		for _, t := range movable {
			if req.Cluster.Container(t.Container).Placed() {
				continue
			}
			cands := req.Cluster.AppendCandidates(st.candBuf[:0], t.Container)
			st.candBuf = cands
			if len(cands) == 0 {
				if report != nil {
					report.UnplacedContainers = append(report.UnplacedContainers, t.Container)
					dropped[t.Container] = true
					continue
				}
				return fmt.Errorf("core: %w for container %d", scheduler.ErrNoFeasibleServer, t.Container)
			}
			if err := req.Cluster.Place(t.Container, cands[req.Rand.Intn(len(cands))]); err != nil {
				return err
			}
		}
	}
	if len(dropped) > 0 {
		kept := movable[:0:0]
		for _, t := range movable {
			if !dropped[t.Container] {
				kept = append(kept, t)
			}
		}
		movable = kept
	}

	// Initial random policies (the paper's starting state for Algorithm 1).
	// In degraded mode an unroutable flow — no feasible switch or route, or
	// an endpoint left unplaced above — is reported and excluded from the
	// round's working set.
	loc := req.Locator()
	if report != nil {
		kept := flows[:0:0]
		for _, f := range flows {
			if loc.ServerOf(f.Src) == topology.None || loc.ServerOf(f.Dst) == topology.None {
				report.UnroutableFlows = append(report.UnroutableFlows, f.ID)
				continue
			}
			kept = append(kept, f)
		}
		flows = kept
	}
	// Sharded runs pre-warm the oracle's template/stage caches on the
	// shard workers; the sequential draw-and-install loop below then runs
	// against warm caches. Pure reads — results are unchanged.
	if ms != nil {
		ms.WarmTemplates(flows, loc)
	}
	routable := st.routable[:0]
	for _, f := range flows {
		p, err := req.Controller.RandomPolicy(f, loc, req.Rand)
		if err != nil {
			if report != nil && (errors.Is(err, controller.ErrNoFeasibleSwitch) || errors.Is(err, controller.ErrNoFeasibleRoute)) {
				report.UnroutableFlows = append(report.UnroutableFlows, f.ID)
				continue
			}
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("core: initial policy for flow %d: %w", f.ID, err)
		}
		routable = append(routable, f)
	}
	st.routable = routable
	flows = routable

	if h.isSubsequentWave(req, movable, flows) {
		return h.scheduleSubsequentWave(req, movable, flows, st)
	}
	return h.scheduleInitialWave(ms, req, movable, flows, st)
}

// movableTasks returns the tasks whose containers this round may move.
func (h *HitScheduler) movableTasks(req *scheduler.Request) []scheduler.Task {
	var out []scheduler.Task
	for _, t := range req.Tasks {
		if !req.Fixed[t.Container] {
			out = append(out, t)
		}
	}
	return out
}

// isSubsequentWave reports whether this request matches §5.3.2: every
// movable task is a Map, and at least one flow terminates at a fixed
// (already placed) Reduce container.
func (h *HitScheduler) isSubsequentWave(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow) bool {
	if len(movable) == 0 || len(req.Fixed) == 0 {
		return false
	}
	for _, t := range movable {
		if t.Kind != workload.MapTask {
			return false
		}
	}
	anyFixedDst := false
	for _, f := range flows {
		if req.Fixed[f.Dst] {
			anyFixedDst = true
			break
		}
	}
	return anyFixedDst
}

// flowSolve records one flow's most recent Algorithm-1 solve within a
// Schedule call: the solve's output policy (whether or not it was adopted),
// whether the solve ran over unfiltered stage lists, and the endpoint
// servers it saw. These are exactly the inputs cleanFlow needs to prove a
// re-solve would reproduce the same result bit for bit.
type flowSolve struct {
	policy   *flow.Policy
	full     bool
	src, dst topology.NodeID
}

// prefRow memoizes one container's preference build in assignGroup: the
// inputs it was derived from (original server, feasible server set,
// anchored peer servers per incident flow) and the derived outputs. When
// the inputs recur unchanged in a later iteration, the outputs are reused
// verbatim — containers untouched by the previous round's matching cost
// nothing to re-rank. Every slice is carved from the call's slabs.
type prefRow struct {
	orig      topology.NodeID
	feasible  []int
	peerSrv   []topology.NodeID
	propPrefs []int
	votes     []int
}

// slab is an append-only arena for one Schedule call: take carves
// sub-slices that stay valid and unshared until reset. When the current
// chunk runs out, take starts a larger one (earlier carvings keep the old
// chunk alive); after reset only the newest, largest chunk is reused, so a
// run of similar calls soon stops allocating. Carved memory is NOT zeroed:
// every taker overwrites its whole slice.
type slab[T any] struct {
	buf     []T
	spilled int // elements carved from chunks before buf this call
}

// minSlabChunk is the smallest chunk a slab allocates.
const minSlabChunk = 1024

// take carves n elements from s.
func take[T any](s *slab[T], n int) []T {
	if len(s.buf)+n > cap(s.buf) {
		s.spilled += len(s.buf)
		s.buf = make([]T, 0, max(2*cap(s.buf), n, minSlabChunk))
	}
	lo, hi := len(s.buf), len(s.buf)+n
	s.buf = s.buf[:hi]
	return s.buf[lo:hi:hi]
}

// untake returns the n elements the latest take carved.
func untake[T any](s *slab[T], n int) { s.buf = s.buf[:len(s.buf)-n] }

// rewind empties s for the next call. A call that outgrew the chunk it
// started with sizes the next chunk to its whole use, with a quarter of
// headroom, so the next similar call fits in one chunk.
func rewind[T any](s *slab[T]) {
	if used := s.spilled + len(s.buf); s.spilled > 0 && used+used/4 > cap(s.buf) {
		s.buf = make([]T, 0, used+used/4)
	}
	s.buf, s.spilled = s.buf[:0], 0
}

// demandClass shares per-demand facts across the containers of one group.
// Every group container stands unplaced when feasibility is computed, so
// CanHost depends only on the container's resource demand: containers with
// identical demands see the identical feasible-server set, candidate list,
// and — candidates being the only per-container input — identical
// nearest-feasible votes per anchored peer server. One O(V) scan per
// distinct demand replaces one per container.
type demandClass struct {
	demand cluster.Resources
	feas   []int
	cands  []topology.NodeID
	// votes[si] is the class's vote for anchored peer server index si:
	// the voted server index, -1 = none, voteUnset = not computed yet.
	votes []int32
}

const voteUnset = -2

// runState is the dirty-set bookkeeping and the working memory of ONE
// Schedule call. A HitScheduler keeps one spare runState between calls
// (HitScheduler.spare): a call takes it — a concurrent call that finds
// none builds its own — and resets and stores it back when it returns, so
// a scheduler value is still reused across requests, and concurrently,
// exactly as before, while the steady state recycles the maps, matchers
// and slabs below instead of reallocating them. No memo survives reset:
// neither flow nor container IDs nor a (Version, LivenessVersion) pair
// identify anything across requests.
type runState struct {
	solves map[flow.ID]flowSolve
	prefs  map[cluster.ContainerID]prefRow
	// matchers holds one slab-reusing stable matcher per container group
	// (reduces, maps): successive iterations of the joint loop re-match the
	// same group, so the dense scratch — and, when nothing changed, the
	// previous matching itself — carries over. Only used when incremental()
	// is on; the DisableIncremental parity path calls stablematch.Match
	// directly every time.
	matchers [2]stablematch.Matcher
	// rows caches per-peer-server distance rows across assignGroup calls.
	// Rows are pure functions of (topology, liveness), so the cache is keyed
	// by both versions and dropped whole on any change — the structural
	// oracle recomputes a row per DistRow call (that is what keeps ITS
	// footprint O(V)), so this call-scoped memo is what bounds the build at
	// O(distinct peers × V) per Schedule instead of per group per iteration.
	// Incremental-only: the DisableIncremental parity path refetches.
	rows        map[topology.NodeID][]int32
	rowsValid   bool
	rowsTopoVer uint64
	rowsLiveVer uint64

	// Append-only per-call slabs. Everything the preference memo, the
	// matcher memo or the rows cache may alias lives here: proposer and
	// host preference rows, feasible sets and votes (ints); anchored peer
	// servers (nodes); structural distance rows (dists). Carvings stay
	// intact until reset ends the call.
	ints  slab[int]
	nodes slab[topology.NodeID]
	dists slab[int32]

	// Per-group scratch, overwritten by every assignGroup call. Only the
	// slab carvings stored in it outlive the group.
	srvIdx     []int32 // node ID → index into the cluster's server list
	containers []cluster.ContainerID
	original   []topology.NodeID
	incFlows   []*flow.Flow // incident flows, CSR by container
	incOff     []int32
	peerSrv    [][]topology.NodeID
	classes    []demandClass
	classOf    []int32
	memoHit    []bool
	accSlotOf  []int32 // server index → dense access-switch slot
	accSlotBy  []int32 // node ID → access-switch slot, -1 = none yet
	accNodes   []topology.NodeID
	propPrefs  [][]int
	votes      [][]int
	gradeRowOf []int32 // server index → row in gradeBack, -1 = none
	gradeBack  []float64
	hostPrefs  [][]int
	capacity   []float64
	loads      []float64
	scanBuf    []int // feasibility scan before carving
	peerBuf    []topology.NodeID

	// Per-call scratch of schedule itself.
	candBuf  []topology.NodeID
	routable []*flow.Flow // the call's working flow set
	snap     map[cluster.ContainerID]topology.NodeID
}

func newRunState() *runState {
	return &runState{
		solves: make(map[flow.ID]flowSolve),
		prefs:  make(map[cluster.ContainerID]prefRow),
	}
}

// reset readies a runState for recycling once its call is done: every
// memo is dropped, the matchers forget (keeping their slabs), the slabs
// rewind — resizing now, so the next call starts with one chunk big
// enough — and the scratch that points at request data is cleared, so the
// spare state pins none of it.
func (st *runState) reset() {
	clear(st.solves)
	clear(st.prefs)
	for gi := range st.matchers {
		st.matchers[gi].Forget()
	}
	clear(st.rows)
	st.rowsValid = false
	rewind(&st.ints)
	rewind(&st.nodes)
	rewind(&st.dists)
	clear(st.incFlows[:cap(st.incFlows)])
	clear(st.routable[:cap(st.routable)])
}

// record stores the outcome of an Algorithm-1 solve for f.
func (st *runState) record(f *flow.Flow, loc flow.Locator, p *flow.Policy, info controller.SolveInfo) {
	if p == nil {
		return
	}
	st.solves[f.ID] = flowSolve{
		policy: p,
		full:   info.FullStages,
		src:    loc.ServerOf(f.Src),
		dst:    loc.ServerOf(f.Dst),
	}
}

// cleanFlow reports whether re-running Algorithm 1 for f is provably a
// no-op this instant: the last solve this run used unfiltered stage lists,
// both endpoints still sit on the servers that solve saw, and the fabric
// currently has headroom for f.Rate on every switch — so a fresh solve
// would see identical unfiltered stages and return the identical route,
// and OptimizeInstalled would decline to act exactly as it did before.
// Segment cost being load-independent (Eq. 2) is what makes the proof go
// through: load changes can only alter a solve through the feasibility
// filter, which FitsEverywhere shows is inert for this rate.
func (st *runState) cleanFlow(req *scheduler.Request, f *flow.Flow, loc flow.Locator) bool {
	rec, ok := st.solves[f.ID]
	if !ok || !rec.full {
		return false
	}
	if loc.ServerOf(f.Src) != rec.src || loc.ServerOf(f.Dst) != rec.dst {
		return false
	}
	return req.Controller.FitsEverywhere(f.Rate)
}

// scheduleInitialWave runs the full joint optimization loop over the
// round's working flow set (req.Flows minus any degraded-mode exclusions).
// ms is the sharded service, or nil for the sequential path.
func (h *HitScheduler) scheduleInitialWave(ms *multisched.Service, req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow, st *runState) error {
	loc := req.Locator()
	best, err := req.Controller.TotalCost(flows, loc)
	if err != nil {
		return err
	}
	st.snap = req.Cluster.SnapshotInto(st.snap) // the best placement seen

	for iter := 0; iter < h.maxIterations(); iter++ {
		// Phase 1 — network policy optimization (Algorithm 1 per flow).
		// From iteration 2 on, flows whose endpoints the matching did not
		// move (and whose last solve was over unfiltered stages, still
		// unfiltered now) are clean: re-solving is a proven no-op, so the
		// sweep touches only the dirty set.
		if !h.DisablePolicyOpt {
			if ms != nil {
				if err := h.optimizeFlowsSharded(ms, req, flows, loc, st); err != nil {
					return err
				}
			} else {
				for _, f := range flows {
					if h.incremental() && st.cleanFlow(req, f, loc) {
						continue
					}
					_, opt, info, err := req.Controller.OptimizeInstalledDetailed(f, loc)
					if err != nil {
						return err
					}
					st.record(f, loc, opt, info)
				}
			}
		}

		// Phase 2 — task assignment via preference matrix + stable matching
		// (Algorithm 2).
		if err := h.assign(req, movable, flows, loc, st); err != nil {
			return err
		}

		// Phase 3 — policies must follow the new placement (type templates
		// change when endpoints move racks).
		if err := h.reinstallPolicies(ms, req, flows, loc, st); err != nil {
			return err
		}

		cost, err := req.Controller.TotalCost(flows, loc)
		if err != nil {
			return err
		}
		if cost < best*(1-h.epsilon()) {
			best = cost
			st.snap = req.Cluster.SnapshotInto(st.snap)
			continue
		}
		// No material improvement: restore the best placement seen and stop.
		// Restoring moves endpoints, which cleanFlow detects per flow by
		// comparing servers — no explicit invalidation needed.
		if cost > best {
			if err := req.Cluster.Restore(st.snap); err != nil {
				return err
			}
			if err := h.reinstallPolicies(ms, req, flows, loc, st); err != nil {
				return err
			}
		}
		break
	}
	return nil
}

// reinstallPolicies recomputes and installs the best policy for every flow
// under the current placement. With policy optimization disabled it installs
// fresh random policies matching the (possibly new) type templates. Clean
// flows (cleanFlow) reinstall their recorded solve output without paying
// for the DP again; the uninstall/install sequence itself always runs in
// full flow order, so switch loads accumulate in the historical order.
func (h *HitScheduler) reinstallPolicies(ms *multisched.Service, req *scheduler.Request, flows []*flow.Flow, loc flow.Locator, st *runState) error {
	// Release the old routes first: stale switch loads from pre-move policies
	// must not make the post-move optimum look infeasible.
	for _, f := range flows {
		req.Controller.Uninstall(f.ID)
	}
	// The sharded path covers the Algorithm-1 reinstalls; random policies
	// (DisablePolicyOpt) draw from the sequential RNG and stay here.
	if ms != nil && !h.DisablePolicyOpt {
		return h.reinstallSharded(ms, req, flows, loc, st)
	}
	for _, f := range flows {
		var p *flow.Policy
		var err error
		switch {
		case h.DisablePolicyOpt:
			p, err = req.Controller.RandomPolicy(f, loc, req.Rand)
		case h.incremental() && st.cleanFlow(req, f, loc):
			p = st.solves[f.ID].policy
		default:
			var info controller.SolveInfo
			p, info, err = req.Controller.OptimizePolicyDetailed(f, loc)
			if err == nil {
				st.record(f, loc, p, info)
			}
		}
		if err != nil {
			return err
		}
		if err := req.Controller.Install(f, p); err != nil {
			return fmt.Errorf("core: reinstall flow %d: %w", f.ID, err)
		}
	}
	return nil
}

// prefEntry orders container/server preference pairs.
type prefEntry struct {
	idx   int
	grade float64
}

// assignScratch pools the per-container working buffers of the preference
// build, so a 10k-server wave does not allocate (and GC) a fresh grade
// vector, bucket table, and permutation scratch for every container.
// Buffer identity never leaks into results — every buffer is either fully
// overwritten or explicitly reset before use — so pooling cannot perturb
// determinism.
type assignScratch struct {
	grades   []float64
	slot     []int32
	distinct []float64
	sorted   []float64
	slotRank []int32
	counts   []int32
	offs     []int32
	accCost  []float64
	accSet   []bool
	isPeer   []bool
	peerDist []topology.NodeID // distinct anchored peers, first-appearance order
	peerOf   []int32
	peerSlot []int32 // pi+1 per server index; all zero between uses
	rowOf    [][]int32

	// htabKeys/htabVals form a flat open-addressed hash table (linear
	// probing, val -1 = empty) mapping grade bit patterns to bucket slots.
	// It replaces a map[uint64]int32 on the ranking hot path: at 10k
	// servers the build probes it ~2M times per wave, and the flat probe is
	// several times cheaper than a runtime map access. Lookup/insert only,
	// never iterated, so determinism is untouched.
	htabKeys []uint64
	htabVals []int32
	htabMask uint64
}

var assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}

// grow returns a length-n slice reusing s's backing array when it is big
// enough; the contents are not reset.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growBoolZeroed returns a length-n all-false slice (memclr on reuse).
func growBoolZeroed(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// htabReset sizes the flat hash table and marks every slot empty. The table
// tracks DISTINCT grades — a few hundred even on 10k-server rows — so it
// starts small (L1-resident) regardless of row length and doubles via
// htabGrow when the caller's distinct count passes half the slots.
func (sc *assignScratch) htabReset(n int) {
	sz := 16
	for sz < 2*n && sz < 1024 {
		sz <<= 1
	}
	if cap(sc.htabKeys) < sz {
		sc.htabKeys = make([]uint64, sz)
		sc.htabVals = make([]int32, sz)
	}
	sc.htabKeys = sc.htabKeys[:sz]
	sc.htabVals = sc.htabVals[:sz]
	for i := range sc.htabVals {
		sc.htabVals[i] = -1
	}
	sc.htabMask = uint64(sz - 1)
}

// htabGrow doubles the table and reinserts every distinct grade; slot j of
// sc.distinct is value j, so the rebuild needs no saved keys.
func (sc *assignScratch) htabGrow() {
	sz := 2 * len(sc.htabVals)
	sc.htabKeys = make([]uint64, sz)
	sc.htabVals = make([]int32, sz)
	for i := range sc.htabVals {
		sc.htabVals[i] = -1
	}
	sc.htabMask = uint64(sz - 1)
	for j, g := range sc.distinct {
		sc.htabPut(math.Float64bits(g), int32(j))
	}
}

// htabPut returns the slot stored for key b, inserting next if absent;
// inserted reports which happened.
func (sc *assignScratch) htabPut(b uint64, next int32) (slot int32, inserted bool) {
	h := (b * 0x9e3779b97f4a7c15) & sc.htabMask
	for {
		v := sc.htabVals[h]
		if v < 0 {
			sc.htabKeys[h] = b
			sc.htabVals[h] = next
			return next, true
		}
		if sc.htabKeys[h] == b {
			return v, false
		}
		h = (h + 1) & sc.htabMask
	}
}

// htabGet returns the slot for key b, which must be present.
func (sc *assignScratch) htabGet(b uint64) int32 {
	h := (b * 0x9e3779b97f4a7c15) & sc.htabMask
	for {
		if sc.htabVals[h] >= 0 && sc.htabKeys[h] == b {
			return sc.htabVals[h]
		}
		h = (h + 1) & sc.htabMask
	}
}

// stableRankDesc writes vals permuted into stable descending-grade order
// into out (all three slices share one length). It produces exactly the
// permutation sort.SliceStable yields under a grade-descending comparator:
// grades are bucketed by exact float64 value — −0 normalized to +0, since
// neither zero orders before the other under `>` — and buckets are emitted
// largest-grade-first with input order preserved inside each. One counting
// pass replaces the comparator callbacks, so a row costs O(n + k log k) for
// k distinct grades (k ≈ racks on the anchored fast path). Returns false on
// a NaN grade — never produced by finite rates × integer distances, but the
// comparator algorithm defines that case, so the caller must fall back to
// sortDescFallback.
func (sc *assignScratch) stableRankDesc(grades []float64, vals, out []int) bool {
	n := len(grades)
	slot := grow(sc.slot, n)
	sc.slot = slot
	sc.distinct = sc.distinct[:0]
	sc.htabReset(n)
	for i, g := range grades {
		if math.IsNaN(g) {
			return false
		}
		b := math.Float64bits(g)
		if b == 1<<63 { // -0: same bucket as +0
			b = 0
		}
		s, inserted := sc.htabPut(b, int32(len(sc.distinct)))
		if inserted {
			sc.distinct = append(sc.distinct, math.Float64frombits(b))
			if 2*len(sc.distinct) > len(sc.htabVals) {
				sc.htabGrow()
			}
		}
		slot[i] = s
	}
	k := len(sc.distinct)
	sorted := append(sc.sorted[:0], sc.distinct...)
	sc.sorted = sorted
	sort.Float64s(sorted) // ascending; descending rank = k-1-j
	slotRank := grow(sc.slotRank, k)
	sc.slotRank = slotRank
	for j, g := range sorted {
		slotRank[sc.htabGet(math.Float64bits(g))] = int32(k - 1 - j)
	}
	counts := grow(sc.counts, k)
	sc.counts = counts
	for r := range counts {
		counts[r] = 0
	}
	for _, s := range slot {
		counts[slotRank[s]]++
	}
	offs := grow(sc.offs, k)
	sc.offs = offs
	var sum int32
	for r, c := range counts {
		offs[r] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		r := slotRank[slot[i]]
		out[offs[r]] = vals[i]
		offs[r]++
	}
	return true
}

// sortDescFallback is the comparator-defined path stableRankDesc defers to
// on NaN grades: literally the original sort.SliceStable build.
func sortDescFallback(grades []float64, vals, out []int) {
	entries := make([]prefEntry, len(grades))
	for i := range grades {
		entries[i] = prefEntry{idx: vals[i], grade: grades[i]}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].grade > entries[b].grade })
	for i, e := range entries {
		out[i] = e.idx
	}
}

// nearestByRow is netstate.(*Oracle).NearestByDist over an already-fetched
// distance row: same compare, same unreachable skip, same lower-ID
// tie-break. The incremental preference build uses it so one row fetch
// serves both the anchored cost sums and the vote; the DisableIncremental
// parity path keeps calling the oracle, pinning this replica against it.
func nearestByRow(row []int32, cands []topology.NodeID) topology.NodeID {
	best := topology.None
	bestD := int32(-1)
	for _, c := range cands {
		d := row[c]
		if d < 0 {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && c < best) {
			bestD, best = d, c
		}
	}
	return best
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNodeIDs(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assign performs one round of the Tasks Assignment Algorithm (Algorithm 2).
//
// Map and Reduce containers are matched in alternating sub-rounds — reduces
// first (shuffle destinations chase their sources), then maps. Within a
// sub-round every flow endpoint outside the group is anchored at its current
// server, which makes each group member's cost independent of its peers'
// simultaneous moves: exactly the independence §5.1.3's separability argument
// licenses, turned into coordinate descent. Utilities assume the flow's
// route is re-optimized after the move (the paper's grades "will be updated
// when rescheduling a new routing path"), so they reduce to rate ×
// hop-distance deltas against the anchored peer.
func (h *HitScheduler) assign(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow, loc flow.Locator, st *runState) error {
	var reduces, maps []scheduler.Task
	for _, t := range movable {
		if t.Kind == workload.ReduceTask {
			reduces = append(reduces, t)
		} else {
			maps = append(maps, t)
		}
	}
	for gi, group := range [][]scheduler.Task{reduces, maps} {
		if len(group) == 0 {
			continue
		}
		if err := h.assignGroup(req, group, flows, loc, st, gi); err != nil {
			return err
		}
	}
	return nil
}

// parallelThreshold is the preference-matrix work size (containers ×
// servers) above which assignGroup fans out across containers. Small groups
// stay sequential: goroutine fan-out costs more than the loops it saves.
const parallelThreshold = 4096

// assignGroup matches one kind-homogeneous container group onto servers.
// gi selects the group's slab-reusing matcher in st (0 = reduces, 1 = maps).
// Its tables live in st's per-group scratch and per-call slabs, so a warm
// scheduler runs it without allocating.
func (h *HitScheduler) assignGroup(req *scheduler.Request, group []scheduler.Task, flows []*flow.Flow, loc flow.Locator, st *runState, gi int) error {
	servers := req.Cluster.Servers()
	topo := req.Cluster.Topology()
	oracle := req.Controller.Oracle()
	nS, nC, nNodes := len(servers), len(group), topo.NumNodes()

	// Dense server index: node ID → position in servers (non-servers read
	// 0, as a map miss did; only servers are ever looked up).
	srvIdx := grow(st.srvIdx, nNodes)
	st.srvIdx = srvIdx
	clear(srvIdx)
	for i, s := range servers {
		srvIdx[s] = int32(i)
	}
	containers := st.containers[:0]
	for _, t := range group {
		containers = append(containers, t.Container)
	}
	st.containers = containers

	// Incident flows (CSR: container ci owns incFlows[incOff[ci]:incOff[ci+1]])
	// and anchored peer servers per container. Peer rows are slab-carved:
	// the preference memo keeps them.
	incFlows := st.incFlows[:0]
	incOff := append(st.incOff[:0], 0)
	peerSrv := grow(st.peerSrv, nC)
	for ci, c := range containers {
		peers := st.peerBuf[:0]
		for _, f := range flows {
			if f.Src != c && f.Dst != c {
				continue
			}
			peer := f.Src
			if peer == c {
				peer = f.Dst
			}
			ps := loc.ServerOf(peer)
			if ps == topology.None {
				continue
			}
			incFlows = append(incFlows, f)
			peers = append(peers, ps)
		}
		st.peerBuf = peers
		incOff = append(incOff, int32(len(incFlows)))
		peerSrv[ci] = take(&st.nodes, len(peers))
		copy(peerSrv[ci], peers)
	}
	st.incFlows, st.incOff, st.peerSrv = incFlows, incOff, peerSrv

	// Release the whole group's demand before computing feasibility, so that
	// pairwise exchanges between otherwise-full servers stay reachable — the
	// matching, not the incumbent placement, decides who lands where.
	original := grow(st.original, nC)
	st.original = original
	for ci, c := range containers {
		original[ci] = req.Cluster.Container(c).Server()
		if err := req.Cluster.Unplace(c); err != nil {
			return err
		}
	}

	// Demand classes: the group is fully unplaced here, so feasibility is a
	// function of the demand vector alone and is scanned once per class.
	// A class slot keeps its candidate and vote buffers across calls.
	classes := st.classes[:0]
	classOf := grow(st.classOf, nC)
	st.classOf = classOf
	for ci, c := range containers {
		d := req.Cluster.Container(c).Demand
		k := 0
		for k < len(classes) && classes[k].demand != d {
			k++
		}
		if k == len(classes) {
			feas := st.scanBuf[:0]
			for si, s := range servers {
				if req.Cluster.CanHost(s, c) {
					feas = append(feas, si)
				}
			}
			st.scanBuf = feas
			if k < cap(classes) {
				classes = classes[:k+1] // the slot keeps its buffers
			} else {
				classes = append(classes, demandClass{})
			}
			cl := &classes[k]
			cl.demand = d
			cl.feas = take(&st.ints, len(feas))
			copy(cl.feas, feas)
			cl.cands = cl.cands[:0]
			for _, si := range feas {
				cl.cands = append(cl.cands, servers[si])
			}
			cl.votes = grow(cl.votes, nS)
			for i := range cl.votes {
				cl.votes[i] = voteUnset
			}
		}
		classOf[ci] = int32(k)
	}
	st.classes = classes

	// Dirty check (run before the shared tables are built, so a fully clean
	// round pays for neither rows nor votes): a container whose original
	// server, feasible set, and anchored peers all recur from the previous
	// round would rebuild the exact same row — reuse it.
	useMemo := h.incremental()
	memoHit := growBoolZeroed(st.memoHit, nC)
	st.memoHit = memoHit

	// Group-level shared tables, built sequentially (deterministic oracle
	// call order) and only read by the fan-out below:
	//   rows[ps]      — one distance row per distinct anchored peer server,
	//                   memoized across groups and iterations in st (keyed
	//                   by topology/liveness version) on the incremental
	//                   path, structural rows filled into st.dists;
	//   cl.votes[si]  — the class's nearest-feasible vote for peer server
	//                   index si (Algorithm 1 lines 11–13), a function of
	//                   (peer, candidate list) only. Incremental runs derive
	//                   it from the fetched row with the oracle's own
	//                   compare and lower-ID tie-break; the
	//                   DisableIncremental parity path asks the oracle
	//                   itself, pinning the row-scan replica against
	//                   NearestByDist.
	var rows map[topology.NodeID][]int32
	if useMemo {
		tv, lv := topo.Version(), topo.LivenessVersion()
		if !st.rowsValid || st.rowsTopoVer != tv || st.rowsLiveVer != lv {
			if st.rows == nil {
				st.rows = make(map[topology.NodeID][]int32)
			}
			clear(st.rows)
			st.rowsValid, st.rowsTopoVer, st.rowsLiveVer = true, tv, lv
		}
		rows = st.rows
	} else {
		rows = make(map[topology.NodeID][]int32)
	}
	for ci, c := range containers {
		cl := &classes[classOf[ci]]
		if useMemo {
			if prev, ok := st.prefs[c]; ok && prev.orig == original[ci] &&
				equalInts(prev.feasible, cl.feas) && equalNodeIDs(prev.peerSrv, peerSrv[ci]) {
				memoHit[ci] = true
				continue
			}
		}
		for _, ps := range peerSrv[ci] {
			if _, ok := rows[ps]; !ok {
				if useMemo {
					row, filled := oracle.DistRowInto(take(&st.dists, nNodes), ps)
					if !filled {
						untake(&st.dists, nNodes)
					}
					rows[ps] = row
				} else {
					rows[ps] = oracle.DistRow(ps)
				}
			}
			if vi := srvIdx[ps]; cl.votes[vi] == voteUnset {
				var best topology.NodeID
				if useMemo {
					best = nearestByRow(rows[ps], cl.cands)
				} else {
					best = oracle.NearestByDist(ps, cl.cands)
				}
				if best == topology.None {
					cl.votes[vi] = -1
				} else {
					cl.votes[vi] = srvIdx[best]
				}
			}
		}
	}

	// Single-homed anchored fast path: when every server hangs off exactly
	// one access switch and the fabric is healthy, dist(peer, s) =
	// 1 + dist(peer, access(s)) for every server s that is not the peer
	// itself — so the anchored cost sum is shared by every server of a rack
	// and the per-container scan shrinks from O(flows × feasible servers)
	// to O(flows × access switches). Peer servers themselves keep the
	// direct per-flow loop: their own distance is 0, not 1 + dist.
	// accSlotOf maps each server index to a dense per-rack slot so the
	// per-container cost table is an array, not a map.
	anchorable := topo.ServersSingleHomed() && topo.AllAlive()
	var accSlotOf []int32
	var accNodes []topology.NodeID
	if anchorable {
		accSlotOf = grow(st.accSlotOf, nS)
		st.accSlotOf = accSlotOf
		accSlotBy := grow(st.accSlotBy, nNodes)
		st.accSlotBy = accSlotBy
		for i := range accSlotBy {
			accSlotBy[i] = -1
		}
		accNodes = st.accNodes[:0]
		for si, s := range servers {
			a := oracle.AccessSwitch(s)
			slot := accSlotBy[a]
			if slot < 0 {
				slot = int32(len(accNodes))
				accSlotBy[a] = slot
				accNodes = append(accNodes, a)
			}
			accSlotOf[si] = slot
		}
		st.accNodes = accNodes
	}

	// Per-container preference build (Algorithm 1's preference-matrix rows
	// plus Eq. 10 proposer rankings). Every container's pass writes only its
	// own index, so the fan-out is deterministic: results are identical to
	// the sequential loop regardless of worker count, and the merge into the
	// grade rows below happens column-by-column with no shared writes. The
	// shared tables above (rows, classes, accSlotOf, original) are read-only
	// during the fan-out, and st.prefs is written only after it returns.
	// Output rows are carved here, sequentially, so workers never touch a
	// slab.
	//
	// Cost sums always accumulate in flow order, keeping the floats
	// bit-identical to the ungrouped per-flow loop.
	propPrefs := grow(st.propPrefs, nC)
	votes := grow(st.votes, nC) // per incident flow: voted server index, -1 = none
	st.propPrefs, st.votes = propPrefs, votes
	for ci, c := range containers {
		if memoHit[ci] {
			prev := st.prefs[c]
			propPrefs[ci], votes[ci] = prev.propPrefs, prev.votes
			continue
		}
		propPrefs[ci] = take(&st.ints, len(classes[classOf[ci]].feas))
		votes[ci] = take(&st.ints, int(incOff[ci+1]-incOff[ci]))
	}
	workers := h.fanout()
	if nC*nS < parallelThreshold {
		workers = 1
	}
	// Every write below is addressed by ci (taalint mergeorder contract):
	// workers own disjoint slots, so the merge order is the index order.
	err := parallel.ForEach(nC, workers, func(ci int) error {
		c := containers[ci]
		cl := &classes[classOf[ci]]
		if len(cl.feas) == 0 {
			return fmt.Errorf("core: %w for container %d", scheduler.ErrNoFeasibleServer, c)
		}
		if memoHit[ci] {
			return nil
		}
		incident := incFlows[incOff[ci]:incOff[ci+1]]
		peers := peerSrv[ci]

		sc := assignScratchPool.Get().(*assignScratch)
		defer assignScratchPool.Put(sc)

		// Distinct anchored peer servers in first-appearance order;
		// peerOf[k] indexes the per-peer rows for incident flow k.
		// peerSlot (pi+1 per server index) is all-zero between uses.
		peerSlot := grow(sc.peerSlot, nS)
		sc.peerSlot = peerSlot
		peerOf := grow(sc.peerOf, len(peers))
		sc.peerOf = peerOf
		distinct := sc.peerDist[:0]
		for k, ps := range peers {
			vi := srvIdx[ps]
			pi := peerSlot[vi] - 1
			if pi < 0 {
				pi = int32(len(distinct))
				peerSlot[vi] = pi + 1
				distinct = append(distinct, ps)
			}
			peerOf[k] = pi
		}
		for _, ps := range distinct {
			peerSlot[srvIdx[ps]] = 0
		}
		sc.peerDist = distinct
		rowOf := sc.rowOf[:0]
		for _, ps := range distinct {
			rowOf = append(rowOf, rows[ps])
		}
		sc.rowOf = rowOf
		defer clear(rowOf) // the pool must not pin the call's rows

		// Anchored re-routed cost of hosting this container on server s:
		// Σ rate × dist(peer, s) — the flow cost after Algorithm 1
		// re-optimizes the route for the new endpoint. Accumulated in flow
		// order over the prefetched rows.
		direct := func(s topology.NodeID) float64 {
			var cost float64
			for k, f := range incident {
				d := rowOf[peerOf[k]][s]
				if d < 0 {
					continue
				}
				cost += f.Rate * float64(d)
			}
			return cost
		}
		costAt := func(si int) float64 { return direct(servers[si]) }
		if anchorable {
			// accCost[slot] = Σ rate × float64(1 + dist(peer, access)) in
			// flow order: term-for-term the same float64 values direct()
			// sums for any non-peer server of that rack (the distances are
			// equal ints, so the conversions and products are bit-
			// identical), computed once per access switch instead of once
			// per server. Peer servers fall back to direct().
			accCost := grow(sc.accCost, len(accNodes))
			sc.accCost = accCost
			accSet := growBoolZeroed(sc.accSet, len(accNodes))
			sc.accSet = accSet
			isPeer := growBoolZeroed(sc.isPeer, nS)
			sc.isPeer = isPeer
			for _, ps := range distinct {
				isPeer[srvIdx[ps]] = true
			}
			costAt = func(si int) float64 {
				if isPeer[si] {
					return direct(servers[si])
				}
				slot := accSlotOf[si]
				if !accSet[slot] {
					var cost float64
					a := accNodes[slot]
					for k, f := range incident {
						da := rowOf[peerOf[k]][a]
						if da < 0 {
							continue
						}
						cost += f.Rate * float64(1+da)
					}
					accCost[slot] = cost
					accSet[slot] = true
				}
				return accCost[slot]
			}
		}

		// Proposer preferences: servers by utility (Eq. 10) = current cost
		// minus candidate cost, descending.
		curCost := costAt(int(srvIdx[original[ci]]))
		grades := grow(sc.grades, len(cl.feas))
		sc.grades = grades
		for i, si := range cl.feas {
			grades[i] = curCost - costAt(si)
		}
		prop := propPrefs[ci]
		if !sc.stableRankDesc(grades, cl.feas, prop) {
			sortDescFallback(grades, cl.feas, prop)
		}

		// Fan the class's per-peer votes out to this container's flows.
		vts := votes[ci]
		for k, ps := range peers {
			vts[k] = int(cl.votes[srvIdx[ps]])
		}
		return nil
	})
	if err != nil {
		return err
	}
	if useMemo {
		for ci, c := range containers {
			if !memoHit[ci] {
				st.prefs[c] = prefRow{
					orig:      original[ci],
					feasible:  classes[classOf[ci]].feas,
					peerSrv:   peerSrv[ci],
					propPrefs: propPrefs[ci],
					votes:     votes[ci],
				}
			}
		}
	}

	// Deterministic merge of the votes into the host-preference grades.
	// Votes are sparse — at most one server per incident flow — so only
	// voted servers carry a grade row (gradeRowOf[si] indexes the nC-wide
	// rows of gradeBack); every other server's grades are all zero, and a
	// stable descending sort of an all-equal row is the identity
	// permutation, shared once below instead of built per server.
	gradeRowOf := grow(st.gradeRowOf, nS)
	st.gradeRowOf = gradeRowOf
	for si := range gradeRowOf {
		gradeRowOf[si] = -1
	}
	gradeBack := st.gradeBack[:0]
	for ci := range containers {
		for k, f := range incFlows[incOff[ci]:incOff[ci+1]] {
			si := votes[ci][k]
			if si < 0 {
				continue
			}
			r := gradeRowOf[si]
			if r < 0 {
				r = int32(len(gradeBack) / nC)
				gradeRowOf[si] = r
				n := len(gradeBack)
				gradeBack = slices.Grow(gradeBack, nC)[:n+nC]
				clear(gradeBack[n:])
			}
			gradeBack[int(r)*nC+ci] += f.Rate
		}
	}
	st.gradeBack = gradeBack
	identity := take(&st.ints, nC)
	for ci := range identity {
		identity[ci] = ci
	}
	hostPrefs := grow(st.hostPrefs, nS)
	st.hostPrefs = hostPrefs
	sc := assignScratchPool.Get().(*assignScratch)
	for si := range servers {
		r := gradeRowOf[si]
		if r < 0 {
			hostPrefs[si] = identity
			continue
		}
		row := gradeBack[int(r)*nC : int(r+1)*nC]
		out := take(&st.ints, nC)
		if !sc.stableRankDesc(row, identity, out) {
			sortDescFallback(row, identity, out)
		}
		hostPrefs[si] = out
	}
	assignScratchPool.Put(sc)

	// CPU is the binding capacity dimension for the matching.
	capacity := grow(st.capacity, nS)
	st.capacity = capacity
	for si, s := range servers {
		capacity[si] = float64(req.Cluster.Free(s).CPU)
	}
	loads := grow(st.loads, nC)
	st.loads = loads
	for ci, c := range containers {
		loads[ci] = float64(req.Cluster.Container(c).Demand.CPU)
		if loads[ci] <= 0 {
			loads[ci] = 1 // zero-CPU containers still occupy a scheduling slot
		}
	}

	place := func(ci int, s topology.NodeID) error {
		c := containers[ci]
		if s != topology.None {
			if err := req.Cluster.Place(c, s); err == nil {
				return nil
			}
		}
		// Memory (the unmodeled dimension) blocked the slot: fall back to the
		// original server, then any feasible one.
		if orig := original[ci]; orig != topology.None && orig != s {
			if err := req.Cluster.Place(c, orig); err == nil {
				return nil
			}
		}
		for _, alt := range req.Cluster.Candidates(c) {
			if err := req.Cluster.Place(c, alt); err == nil {
				return nil
			}
		}
		return fmt.Errorf("core: %w for container %d after matching", scheduler.ErrNoFeasibleServer, c)
	}

	if h.DisableStableMatching {
		// Ablation: greedy sequential best-utility placement.
		for ci, c := range containers {
			placed := false
			for _, si := range propPrefs[ci] {
				if req.Cluster.CanHost(servers[si], c) {
					if err := req.Cluster.Place(c, servers[si]); err == nil {
						placed = true
						break
					}
				}
			}
			if !placed {
				if err := place(ci, original[ci]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	inst := &stablematch.Instance{
		NumProposers:  nC,
		NumHosts:      nS,
		ProposerPrefs: propPrefs,
		HostPrefs:     hostPrefs,
		Load:          loads,
		Capacity:      capacity,
	}
	// Incremental runs keep one Matcher per group alive across the whole
	// Schedule call (and, recycled with st, across calls — reset makes it
	// forget): scratch slabs carry over, and an iteration whose preference
	// build fully memo-hit replays the previous stable matching (provably
	// identical — deferred acceptance is deterministic). Every row handed
	// to it is a slab carving left untouched until reset, which is the
	// Matcher's replay contract. The DisableIncremental path matches from
	// scratch; parity tests pin the two bit-equal.
	var res *stablematch.Result
	if h.incremental() {
		m := &st.matchers[gi]
		m.Workers = h.fanout()
		res, err = m.MatchShared(inst)
	} else {
		res, err = stablematch.Match(inst)
	}
	if err != nil {
		return err
	}
	for ci, hostIdx := range res.HostOf {
		target := original[ci]
		if hostIdx != stablematch.Unmatched {
			target = servers[hostIdx]
		}
		if err := place(ci, target); err != nil {
			return err
		}
	}
	return nil
}

// scheduleSubsequentWave implements §5.3.2: reduce placements are fixed, so
// each shuffle flow's destination is static; maps are placed greedily in
// descending shuffle-output order onto the feasible server with the lowest
// added communication delay, then policies are optimized.
func (h *HitScheduler) scheduleSubsequentWave(req *scheduler.Request, movable []scheduler.Task, flows []*flow.Flow, st *runState) error {
	loc := req.Locator()
	tasks := append([]scheduler.Task(nil), movable...)
	scheduler.SortTasksByShuffleOutput(tasks)
	oracle := req.Controller.Oracle()

	for _, t := range tasks {
		c := t.Container
		incident := flow.IncidentFlows(c, flows)
		best := topology.None
		bestCost := 0.0
		for _, s := range req.Cluster.Candidates(c) {
			var cost float64
			for _, f := range incident {
				var peer cluster.ContainerID
				if f.Src == c {
					peer = f.Dst
				} else {
					peer = f.Src
				}
				ps := loc.ServerOf(peer)
				if ps == topology.None {
					continue
				}
				d := oracle.Dist(s, ps)
				if d < 0 {
					continue
				}
				cost += f.Rate * float64(d)
			}
			if best == topology.None || cost < bestCost {
				best, bestCost = s, cost
			}
		}
		if best == topology.None {
			return fmt.Errorf("core: %w for map container %d", scheduler.ErrNoFeasibleServer, c)
		}
		// The container was randomly placed during initialization; move it.
		if err := req.Cluster.Place(c, best); err != nil {
			return err
		}
	}
	// Subsequent waves stay sequential: the greedy per-container scan is
	// RNG- and order-free but cheap, and not worth a sharded variant.
	return h.reinstallPolicies(nil, req, flows, loc, st)
}
