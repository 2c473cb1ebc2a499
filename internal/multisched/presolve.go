package multisched

import (
	"sync"
	"sync/atomic"

	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/netstate"
	"repro/internal/supervise"
	"repro/internal/topology"
)

// Proposal is one flow's presolved result, produced by a worker against
// the ProposalSet's snapshot and judged by the arbiter at commit time. OK
// is false when the flow was skip-hinted, its endpoints were unresolvable,
// or the snapshot solve failed — the commit then replays live.
type Proposal struct {
	Src, Dst topology.NodeID
	// OldPolicy is the flow's installed policy at fan-out time, prefetched
	// sequentially (cost presolves only). Policies are immutable once
	// built, so pointer equality at commit time proves the incumbent's
	// route — and thus OldCost — is still current (a reinstall of the very
	// same object is the same route).
	OldPolicy *flow.Policy
	Policy    *flow.Policy
	Info      controller.SolveInfo
	// OldCost/NewCost are Eq. 2 costs, load-independent and therefore
	// valid at any later epoch with unchanged liveness and endpoints.
	OldCost, NewCost float64
	OK               bool
	// Sum is the integrity checksum over the payload, written by the
	// worker after a successful solve and re-verified by the arbiter: a
	// corrupted proposal replays (ReasonChecksum) instead of adopting.
	Sum uint64
}

// proposalSum hashes every adoption-relevant field of a solved proposal.
// The worker stamps it after solving; the arbiter recomputes it before
// adopting, so any payload corruption between the two (a poisoned
// proposal, a worker bug, bit-rot) is caught deterministically.
func proposalSum(pr *Proposal) uint64 {
	var d supervise.Digest
	d.Int(int64(pr.Src))
	d.Int(int64(pr.Dst))
	if pr.Policy != nil {
		d.Int(int64(pr.Policy.Flow))
		d.Int(int64(len(pr.Policy.List)))
		for _, n := range pr.Policy.List {
			d.Int(int64(n))
		}
		d.Int(int64(len(pr.Policy.Types)))
		for _, ty := range pr.Policy.Types {
			d.Str(ty)
		}
	}
	d.Bool(pr.Info.FullStages)
	d.Bool(pr.Info.CacheHit)
	d.Float(pr.OldCost)
	d.Float(pr.NewCost)
	return d.Sum64()
}

// Cell-slot markers in cellIdx: skipSlot flags skip-hinted flows (always
// replayed, as before); stormSlot flags flows whose presolve was
// suppressed by conflict-storm degradation (supervise), which replay with
// ReasonStorm.
const (
	skipSlot  int32 = -1
	stormSlot int32 = -2
)

// opsPerFlow is the flat budget charge per presolved flow; a solved flow
// additionally pays its route length. The unit is "oracle operations",
// deliberately coarse — the budget exists to bound runaway cells
// deterministically, not to meter real work.
const opsPerFlow = 8

// ProposalSet is one phase's fan-out: the immutable inputs, the per-flow
// proposals, and the cell completion signals the arbiter blocks on. Create
// via PresolveOptimize or PresolveRoutes; always Drain before abandoning
// the set (e.g. on an error-path return), so no worker outlives the
// state it reads.
type ProposalSet struct {
	svc       *Service
	flows     []*flow.Flow
	loc       flow.Locator
	snap      netstate.Snapshot
	withCosts bool

	props []Proposal
	// cells[k] lists the (ascending) flow indices of the k-th cell, cells
	// ordered by first flow index so workers claim the earliest-committing
	// work first. cellIdx[i] = k, skipSlot for skip-hinted flows, or
	// stormSlot when degradation suppressed the whole fan-out.
	cells [][]int32
	// cellDone[k] closes exactly once, by runCell — the single closing
	// owner taalint's chandiscipline check enforces. The close is
	// deferred, so it fires on panic and budget-abandonment paths too;
	// the arbiter's wait can therefore block on it unconditionally.
	cellDone []chan struct{}
	cellIdx  []int32
	// poisoned[k] marks cell k's worker panicked: every flow of the cell
	// replays sequentially. abandoned[k] marks the cell ran over its
	// operation budget: its unsolved tail replays.
	poisoned  []atomic.Bool
	abandoned []atomic.Bool

	// phase is the supervisor's fan-out sequence number, namespacing
	// deterministic fault-injection draws; fan is the degradation-adjusted
	// worker budget (0 = presolve suppressed).
	phase uint64
	fan   int

	next atomic.Int64
	wg   sync.WaitGroup
}

// PresolveOptimize fans out phase-1 presolves (route plus old/new cost)
// for every non-skip flow and returns immediately; workers fill proposals
// cell by cell. The old-policy pointers and the snapshot are captured
// sequentially, before any worker starts.
func (s *Service) PresolveOptimize(flows []*flow.Flow, skip []bool, loc flow.Locator) *ProposalSet {
	ps := s.newSet(flows, skip, loc, true)
	for i, f := range flows {
		if ps.cellIdx[i] >= 0 {
			ps.props[i].OldPolicy = s.ctl.Policy(f.ID)
		}
	}
	ps.start()
	return ps
}

// PresolveRoutes fans out phase-3 presolves (route only; flows are
// uninstalled, so there is no incumbent to cost against).
func (s *Service) PresolveRoutes(flows []*flow.Flow, skip []bool, loc flow.Locator) *ProposalSet {
	ps := s.newSet(flows, skip, loc, false)
	ps.start()
	return ps
}

func (s *Service) newSet(flows []*flow.Flow, skip []bool, loc flow.Locator, withCosts bool) *ProposalSet {
	ps := &ProposalSet{
		svc:       s,
		flows:     flows,
		loc:       loc,
		snap:      s.oracle.Snapshot(),
		withCosts: withCosts,
		props:     make([]Proposal, len(flows)),
		cellIdx:   make([]int32, len(flows)),
		phase:     s.sup.NextPhase(),
		fan:       s.sup.EffectiveShards(s.shards),
	}
	if ps.fan < 1 {
		// Conflict-storm degradation: skip the fan-out entirely. Every
		// non-skip flow replays through the sequential controller path —
		// the safe path — until the supervisor re-escalates.
		for i := range flows {
			ps.cellIdx[i] = stormSlot
			if skip != nil && skip[i] {
				ps.cellIdx[i] = skipSlot
			}
		}
		return ps
	}
	slotOf := make(map[int]int)
	for i, f := range flows {
		if skip != nil && skip[i] {
			ps.cellIdx[i] = skipSlot
			continue
		}
		cell := s.oracle.CellOf(loc.ServerOf(f.Src))
		slot, ok := slotOf[cell]
		if !ok {
			slot = len(ps.cells)
			slotOf[cell] = slot
			ps.cells = append(ps.cells, nil)
			ps.cellDone = append(ps.cellDone, make(chan struct{}))
		}
		ps.cells[slot] = append(ps.cells[slot], int32(i))
		ps.cellIdx[i] = int32(slot)
	}
	ps.poisoned = make([]atomic.Bool, len(ps.cells))
	ps.abandoned = make([]atomic.Bool, len(ps.cells))
	return ps
}

// start launches min(fan, cells) workers through the supervisor's
// recover-wrapped entry point (the `panicpath` contract — no naked go
// statements in decision packages). Workers claim cells from an atomic
// counter in slot order (earliest first flow first), presolve every flow
// of the cell, and close the cell's done channel — the arbiter's wait
// unblocks per cell, overlapping commits with later presolves.
func (ps *ProposalSet) start() {
	n := ps.fan
	if n > len(ps.cells) {
		n = len(ps.cells)
	}
	for w := 0; w < n; w++ {
		ps.wg.Add(1)
		ps.svc.sup.Go(func() {
			defer ps.wg.Done()
			for {
				c := int(ps.next.Add(1)) - 1
				if c >= len(ps.cells) {
					return
				}
				ps.runCell(c)
			}
		})
	}
}

// runCell presolves one cell under panic isolation: a panic (injected or
// genuine) poisons the cell — every one of its flows replays through the
// ordered sequential path, which recomputes them and reproduces any
// genuine failure in deterministic order — and the done channel closes
// regardless, so the arbiter never blocks on a dead cell.
func (ps *ProposalSet) runCell(c int) {
	defer close(ps.cellDone[c])
	if panicked, _ := ps.svc.sup.Isolate(func() { ps.presolveCell(c) }); panicked {
		ps.poisoned[c].Store(true)
	}
}

// presolveCell is the budgeted cell body. The operation budget is the
// deterministic straggler guard: its spend sequence depends only on the
// cell's flow list and solve results, so the abandonment point — and
// therefore which flows fall back to sequential replay — is identical on
// every run and at every shard count.
func (ps *ProposalSet) presolveCell(c int) {
	sup := ps.svc.sup
	faults := sup.Faults()
	if faults.PanicCell(ps.phase, c) {
		panic("multisched: injected worker panic")
	}
	bud := sup.CellBudget()
	if faults.StallCell(ps.phase, c) {
		sup.NoteStall()
		bud.Exhaust()
	}
	for _, fi := range ps.cells[c] {
		if !bud.Spend(opsPerFlow) {
			ps.abandoned[c].Store(true)
			sup.NoteOverBudget()
			return
		}
		i := int(fi)
		ps.solveFlow(i)
		if pr := &ps.props[i]; pr.OK {
			if pr.Policy != nil {
				bud.Spend(int64(len(pr.Policy.List)))
			}
			if faults.PoisonFlow(ps.phase, i) {
				poisonProposal(pr)
				sup.NotePoison()
			}
		}
	}
}

// poisonProposal corrupts a solved proposal's payload WITHOUT updating
// its checksum — modeling the bit-flips and stale-buffer bugs the
// integrity sum exists to catch. The arbiter must detect the mismatch and
// replay; adopting a poisoned proposal would corrupt the run.
func poisonProposal(pr *Proposal) {
	switch {
	case pr.Policy != nil && len(pr.Policy.List) > 0:
		pr.Policy.List[0]++
	case pr.OK:
		pr.NewCost = pr.NewCost + 1
	}
}

func (ps *ProposalSet) solveFlow(i int) {
	f := ps.flows[i]
	pr := &ps.props[i]
	pr.Src, pr.Dst = ps.loc.ServerOf(f.Src), ps.loc.ServerOf(f.Dst)
	pol, info, ok := ps.svc.solveBetween(f, pr.Src, pr.Dst)
	if !ok {
		return
	}
	pr.Policy, pr.Info = pol, info
	if ps.withCosts {
		cost := ps.svc.ctl.CostModel()
		oldCost, err := cost.FlowCost(f, pr.OldPolicy, ps.loc)
		if err != nil {
			return
		}
		newCost, err := cost.FlowCost(f, pol, ps.loc)
		if err != nil {
			return
		}
		pr.OldCost, pr.NewCost = oldCost, newCost
	}
	pr.OK = true
	pr.Sum = proposalSum(pr)
}

// wait blocks until flow i's cell has been fully presolved (or poisoned
// or abandoned) and returns its proposal plus the supervisor reason that
// forces a replay: ReasonPanic for a poisoned cell, ReasonBudget for an
// over-budget cell's unsolved tail, ReasonStorm under degradation,
// ReasonMiss for skip-hinted flows. ReasonNone leaves the proposal to
// the arbiter's judgement.
func (ps *ProposalSet) wait(i int) (*Proposal, supervise.Reason) {
	slot := ps.cellIdx[i]
	switch slot {
	case skipSlot:
		return nil, supervise.ReasonMiss
	case stormSlot:
		return nil, supervise.ReasonStorm
	}
	<-ps.cellDone[slot]
	if ps.poisoned[slot].Load() {
		return nil, supervise.ReasonPanic
	}
	pr := &ps.props[i]
	if !pr.OK && ps.abandoned[slot].Load() {
		return nil, supervise.ReasonBudget
	}
	return pr, supervise.ReasonNone
}

// Drain blocks until every worker has exited. Defer it wherever a
// ProposalSet is created: the workers read the locator, cluster and
// oracle, and must not overlap whatever mutation follows an early return.
func (ps *ProposalSet) Drain() { ps.wg.Wait() }
