package multisched

import (
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/flow"
	"repro/internal/supervise"
	"repro/internal/topology"
)

// Arbiter is the single mutation funnel of a sharded schedule. Every
// Install, Uninstall and Place of the sharded path goes through a method
// on this type, invoked on the scheduling goroutine in canonical
// (sequential flow) order — never from a worker. The taalint
// `arbitercommit` check pins that statically.
//
// Each commit either ADOPTS a proposal the validation protocol proves
// equal to a live sequential solve, or REPLAYS the exact sequential
// controller call. Both land the same bits; adoption just skips the DP.
// Every commit outcome also feeds the supervisor's conflict-storm
// hysteresis (supervise.Supervisor.Commit), in the same canonical order,
// so degradation decisions are deterministic.
type Arbiter struct {
	s     *Service
	stats Stats
}

// Stats counts commit outcomes. All counters are deterministic for
// a fixed input — validation depends only on the deterministic state
// sequence, never on worker timing — so tests may assert on them.
// Replay classification by reason lives in the supervisor's stats
// (Service.Supervisor().Stats().Replays).
type Stats struct {
	// Adopted proposals passed validation and were committed as-is.
	Adopted int
	// Replayed commits fell back to the live sequential solve (invalid,
	// failed, or skip-hinted-then-dirty proposals).
	Replayed int
	// Installs and Places count the funnelled raw mutations.
	Installs int
	Places   int
}

// Stats returns the commit counters accumulated so far.
func (a *Arbiter) Stats() Stats { return a.stats }

// judge is the commit-time validation protocol shared by both commit
// kinds, returning ReasonNone when the proposal may be adopted and the
// replay classification otherwise. A proposal may be adopted when:
//
//  1. the worker produced one (OK) — else ReasonMiss;
//  2. its integrity checksum matches the payload — else ReasonChecksum
//     (a poisoned or corrupted proposal must never be adopted);
//  3. liveness is unchanged since the snapshot (epoch-CAS on the liveness
//     component): every structure cache the worker read is still current;
//  4. the flow's endpoints sit where the worker saw them — checked via
//     the full epoch-CAS short-circuit first: if Oracle.Epoch() still
//     equals the snapshot, nothing at all has moved and the field checks
//     are skipped. Cost presolves (needOld) additionally require the
//     incumbent policy to be the exact object the worker costed against
//     (pointer CAS; installed policies are immutable);
//  5. FitsEverywhere(f.Rate) holds LIVE. This is required even when the
//     epoch is unchanged: workers skip the load-derived feasibility
//     prescan, so the proposal is the unfiltered-stages solve, and only
//     cluster-wide headroom at commit time proves the sequential solve
//     would also have been unfiltered. Eq. 2 costs are load-independent,
//     so this is the ONLY load-sensitive input — with it, the proposal
//     equals the live solve bit for bit.
//
// Checks 3-5 fail with ReasonStale.
func (a *Arbiter) judge(ps *ProposalSet, pr *Proposal, f *flow.Flow, needOld bool) supervise.Reason {
	if pr == nil || !pr.OK {
		return supervise.ReasonMiss
	}
	if pr.Sum != proposalSum(pr) {
		return supervise.ReasonChecksum
	}
	if !ps.snap.LiveUnchanged() {
		return supervise.ReasonStale
	}
	if !ps.snap.Current() {
		if ps.loc.ServerOf(f.Src) != pr.Src || ps.loc.ServerOf(f.Dst) != pr.Dst {
			return supervise.ReasonStale
		}
		if needOld && a.s.ctl.Policy(f.ID) != pr.OldPolicy {
			return supervise.ReasonStale
		}
	}
	if !a.s.ctl.FitsEverywhere(f.Rate) {
		return supervise.ReasonStale
	}
	return supervise.ReasonNone
}

// CommitOptimize commits flow i of a PresolveOptimize set: the sharded
// equivalent of controller.OptimizeInstalledDetailed. Adoption funnels
// the decision through the controller's shared AdoptIfCheaper rule;
// anything else replays live, with the reason recorded in the
// supervisor's stats.
func (a *Arbiter) CommitOptimize(ps *ProposalSet, i int, loc flow.Locator) (float64, *flow.Policy, controller.SolveInfo, error) {
	f := ps.flows[i]
	pr, why := ps.wait(i)
	if why == supervise.ReasonNone {
		why = a.judge(ps, pr, f, true)
	}
	if why == supervise.ReasonNone {
		a.stats.Adopted++
		a.s.sup.Commit(supervise.ReasonNone)
		util, err := a.s.ctl.AdoptIfCheaper(f, pr.Policy, pr.OldCost, pr.NewCost)
		return util, pr.Policy, pr.Info, err
	}
	a.stats.Replayed++
	a.s.sup.Commit(why)
	return a.s.ctl.OptimizeInstalledDetailed(f, loc)
}

// CommitRoute commits flow i of a PresolveRoutes set: the sharded
// equivalent of controller.OptimizePolicyDetailed for an uninstalled flow
// (phase 3 reinstalls). The result is NOT installed — the caller funnels
// it through Install next, exactly like the sequential loop.
func (a *Arbiter) CommitRoute(ps *ProposalSet, i int, loc flow.Locator) (*flow.Policy, controller.SolveInfo, error) {
	f := ps.flows[i]
	pr, why := ps.wait(i)
	if why == supervise.ReasonNone {
		why = a.judge(ps, pr, f, false)
	}
	if why == supervise.ReasonNone {
		a.stats.Adopted++
		a.s.sup.Commit(supervise.ReasonNone)
		return pr.Policy, pr.Info, nil
	}
	a.stats.Replayed++
	a.s.sup.Commit(why)
	return a.s.ctl.OptimizePolicyDetailed(f, loc)
}

// Install funnels a policy install through the arbiter.
func (a *Arbiter) Install(f *flow.Flow, p *flow.Policy) error {
	a.stats.Installs++
	return a.s.ctl.Install(f, p)
}

// Place funnels a container placement through the arbiter and updates the
// candidate set's per-class feasibility (candidates.go), keeping later
// draws exactly equal to sequential commit-time scans. cs may be nil when
// no candidate set is in play.
func (a *Arbiter) Place(cs *CandidateSet, id cluster.ContainerID, s topology.NodeID) error {
	a.stats.Places++
	if err := a.s.cl.Place(id, s); err != nil {
		return err
	}
	if cs != nil {
		cs.notePlaced(s)
	}
	return nil
}
