// Package multisched is the sharded optimistic scheduling service: N
// worker goroutines presolve Algorithm-1 policy routes against an
// immutable snapshot of the epoch-versioned netstate oracle, and a
// deterministic arbiter — always the scheduling goroutine, never a worker
// — commits the results in the exact order the sequential scheduler would
// have produced them.
//
// # Speculate, then replay in order
//
// The design is speculation plus ordered replay, not partitioned
// ownership. Workers only read: the oracle's concurrent-safe read API
// (distances, type templates, stage lists, the pair-route cache), the
// locator, and old-policy pointers prefetched before fan-out (policies
// are immutable once built, so an installed policy object never changes
// under a reader). Every
// mutation — Install, Uninstall, Place — happens on the arbiter's
// goroutine, through its commit entrypoints, in canonical commit order.
//
// Canonical commit order is the sequential scheduler's flow order, NOT
// cell-major order. Switch loads accumulate float-by-float as policies
// install, and feasibility decisions on a congested fabric depend on that
// running sum; committing cell-by-cell would reorder the additions and
// diverge from the sequential baseline. Cells only shape the PRESOLVE
// stream: a cell groups the flows whose source servers share a rack/pod
// (netstate.Oracle.CellOf), workers claim cells in first-flow order, and
// the arbiter pipelines — it commits flow i as soon as i's cell is done,
// while workers are still presolving later cells.
//
// # Validation
//
// A commit adopts a proposal only when the proposal provably equals what
// a live sequential solve would return, checked by the arbiter at commit
// time (arbiter.go); anything else — stale liveness, moved endpoints, a
// replaced incumbent policy, missing switch headroom, a failed or skipped
// presolve — falls back to the exact sequential controller call ("ordered
// replay"). Adoption therefore never changes a result, only its cost:
// outputs are Float64bits-identical across runs, shard counts, and -race.
//
// The taalint `arbitercommit` check enforces the read-only worker
// contract statically: no blessed cluster/controller mutator may be
// reachable from a goroutine launched in this package.
package multisched

import (
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/parallel"
	"repro/internal/supervise"
	"repro/internal/topology"
)

// Service owns the shard worker budget and the arbiter for one scheduler.
// A Service is bound to one controller/cluster pair; create it once per
// Schedule call (it is two small allocations) or reuse it across calls on
// the same pair — it holds no per-wave state. Resilience state (the
// degradation ladder, fault injection, panic accounting) lives in the
// supervisor, which MAY be shared across Services so hysteresis spans
// waves and Schedule calls.
type Service struct {
	ctl    *controller.Controller
	cl     *cluster.Cluster
	oracle *netstate.Oracle
	shards int
	grp    *parallel.Group
	arb    Arbiter
	sup    *supervise.Supervisor
}

// New returns a Service running presolves on up to shards goroutines
// (shards < 1 is treated as 1) under a fresh default supervisor.
func New(ctl *controller.Controller, cl *cluster.Cluster, shards int) *Service {
	return NewSupervised(ctl, cl, shards, nil)
}

// NewSupervised is New with an explicit resilience runtime. A nil sup
// gets a fresh default supervisor (no fault injection, effectively
// unbounded budgets, default storm hysteresis).
func NewSupervised(ctl *controller.Controller, cl *cluster.Cluster, shards int, sup *supervise.Supervisor) *Service {
	if shards < 1 {
		shards = 1
	}
	if sup == nil {
		sup = supervise.New(supervise.Config{})
	}
	s := &Service{
		ctl:    ctl,
		cl:     cl,
		oracle: ctl.Oracle(),
		shards: shards,
		grp:    parallel.NewGroup(shards),
		sup:    sup,
	}
	s.arb.s = s
	return s
}

// Shards returns the worker budget.
func (s *Service) Shards() int { return s.shards }

// Supervisor returns the service's resilience runtime.
func (s *Service) Supervisor() *supervise.Supervisor { return s.sup }

// Arbiter returns the service's commit funnel. All cluster/controller
// mutations of a sharded schedule flow through its methods, on the
// caller's (scheduling) goroutine.
func (s *Service) Arbiter() *Arbiter { return &s.arb }

// solveBetween is the worker-side Algorithm-1 presolve: the unfiltered
// (Full) stage solve of controller.OptimizeBetween, minus the load-derived
// feasibility prescan workers must not read. When the arbiter later
// confirms FitsEverywhere(f.Rate) at commit time, the sequential solve
// would have seen allFit=true and run this exact query — so the proposal
// equals the live result bit for bit. ok=false abandons the proposal
// (the replay reproduces any genuine error sequentially).
func (s *Service) solveBetween(f *flow.Flow, src, dst topology.NodeID) (*flow.Policy, controller.SolveInfo, bool) {
	var info controller.SolveInfo
	if src == topology.None || dst == topology.None ||
		!s.oracle.Topology().Valid(src) || !s.oracle.Topology().Valid(dst) {
		return nil, info, false
	}
	if src == dst {
		info.FullStages = true
		return &flow.Policy{Flow: f.ID}, info, true
	}
	types, err := s.oracle.TypeTemplate(src, dst)
	if err != nil {
		return nil, info, false
	}
	if len(types) == 0 {
		info.FullStages = true
		return &flow.Policy{Flow: f.ID}, info, true
	}
	stages := s.oracle.StagesForTemplate(types)
	for i := range stages {
		if len(stages[i]) == 0 {
			return nil, info, false
		}
	}
	info.FullStages = true
	list, _, hit, ok := s.oracle.BestRoute(src, dst, netstate.RouteQuery{
		Rate:     f.Rate,
		UnitCost: s.ctl.CostModel().UnitCost,
		Stages:   stages,
		Full:     true,
	})
	info.CacheHit = hit
	if !ok {
		return nil, info, false
	}
	return &flow.Policy{
		Flow:  f.ID,
		List:  append([]topology.NodeID(nil), list...),
		Types: append([]string(nil), types...),
	}, info, true
}

// WarmTemplates preloads the oracle's type-template and stage-list caches
// for every flow's endpoint pair on the shard workers, so the sequential
// random-policy loop that follows only pays cache hits. Pure reads; errors
// (unroutable pairs) are deliberately ignored — the sequential loop
// rediscovers and reports them in order.
func (s *Service) WarmTemplates(flows []*flow.Flow, loc flow.Locator) {
	if s.shards <= 1 || len(flows) == 0 {
		return
	}
	_ = s.grp.ForEach(len(flows), func(i int) error {
		f := flows[i]
		src, dst := loc.ServerOf(f.Src), loc.ServerOf(f.Dst)
		if src == topology.None || dst == topology.None || src == dst {
			return nil
		}
		if types, err := s.oracle.TypeTemplate(src, dst); err == nil && len(types) > 0 {
			s.oracle.StagesForTemplate(types)
		}
		return nil
	})
}
