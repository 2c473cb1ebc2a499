package controller

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/topology"
)

// TestErrNoFeasibleSwitchSentinel drives every Algorithm-1 constructor into
// the saturated-fabric failure and checks the error wraps
// ErrNoFeasibleSwitch, so callers can branch without string matching.
func TestErrNoFeasibleSwitchSentinel(t *testing.T) {
	e := newEnv(t, topology.LinkParams{SwitchCapacity: 1})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 5) // rate 5 > every cap 1

	if _, err := e.ctl.RandomPolicy(f, e.locator(), rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("RandomPolicy error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
	if _, err := e.ctl.OptimizePolicy(f, e.locator()); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("OptimizePolicy error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
	if _, err := e.ctl.OptimizeBetween(f, srv[0], srv[15]); !errors.Is(err, ErrNoFeasibleSwitch) {
		t.Errorf("OptimizeBetween error = %v, want wrap of ErrNoFeasibleSwitch", err)
	}
}

// TestErrNoFeasibleRouteSentinel disconnects a server (its access switch
// crashes in a single-homed tree) and checks the no-path failures wrap
// ErrNoFeasibleRoute.
func TestErrNoFeasibleRouteSentinel(t *testing.T) {
	topo, err := topology.NewTree(2, 2, topology.LinkParams{SwitchCapacity: topology.InfiniteCapacity})
	if err != nil {
		t.Fatal(err)
	}
	srv := topo.Servers()
	ctl := New(topo)
	acc := topo.AccessSwitch(srv[0])
	if err := topo.SetNodeAlive(acc, false); err != nil {
		t.Fatal(err)
	}
	f := &flow.Flow{ID: 7, Src: 1, Dst: 2, SizeGB: 1, Rate: 1}
	if _, err := ctl.OptimizeBetween(f, srv[0], srv[len(srv)-1]); err == nil {
		t.Fatal("expected error for disconnected pair")
	} else if !errors.Is(err, ErrNoFeasibleRoute) {
		t.Errorf("OptimizeBetween error = %v, want wrap of ErrNoFeasibleRoute", err)
	}
}

// TestInstallRejectsDeadSwitchPolicy builds a valid policy, crashes one of
// its switches, and checks Install refuses it.
func TestInstallRejectsDeadSwitchPolicy(t *testing.T) {
	e := newEnv(t, topology.LinkParams{})
	srv := e.topo.Servers()
	f := e.flowBetween(0, 1, 2, srv[0], srv[15], 1)
	p, err := e.ctl.OptimizePolicy(f, e.locator())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.List) == 0 {
		t.Fatal("expected a non-trivial route")
	}
	if err := e.topo.SetNodeAlive(p.List[0], false); err != nil {
		t.Fatal(err)
	}
	if err := e.ctl.Install(f, p); err == nil {
		t.Fatalf("Install accepted a policy through dead switch %d", p.List[0])
	}
}

// TestDisconnectedSegmentIsInfeasible crashes core group 0 and both edge
// switches of pod 3 on a k=4 fat-tree, which cuts pod 3's aggregation
// switch 0 off the fabric while it stays alive — so it still appears in
// the aggregation stage of every layered graph. Its segments are
// disconnected: Algorithm 1 must treat them as infeasible edges (route
// around the switch when it can, ErrNoFeasibleRoute when it is the only
// candidate left), never panic.
func TestDisconnectedSegmentIsInfeasible(t *testing.T) {
	topo, err := topology.NewFatTree(4, topology.LinkParams{SwitchCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]topology.NodeID)
	for _, w := range topo.Switches() {
		byName[topo.Node(w).Name] = w
	}
	for _, name := range []string{"core0", "core1", "access_p3_0", "access_p3_1"} {
		if err := topo.SetNodeAlive(byName[name], false); err != nil {
			t.Fatal(err)
		}
	}
	cut := byName["aggregation_p3_0"]
	if !topo.Alive(cut) {
		t.Fatal("the cut-off aggregation switch must stay alive")
	}
	ctl := New(topo)
	src, dst := topo.Servers()[0], topo.Servers()[4] // pods 0 and 1
	f := &flow.Flow{ID: 1, Src: 1, Dst: 2, SizeGB: 1, Rate: 1}

	solve := func() (p *flow.Policy, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("OptimizeBetween panicked on a disconnected segment: %v", r)
			}
		}()
		return ctl.OptimizeBetween(f, src, dst)
	}

	// Other aggregation switches remain: the solve routes around the cut.
	p, err := solve()
	if err != nil {
		t.Fatalf("OptimizeBetween with live alternatives: %v", err)
	}
	for _, w := range p.List {
		if w == cut || !topo.Alive(w) {
			t.Fatalf("route %v uses the cut-off or a dead switch", p.List)
		}
	}

	// Saturate every other aggregation switch: the cut-off one is the only
	// feasible candidate of its stage, and no finite route remains.
	for _, w := range topo.SwitchesOfType(topology.TypeAggregation) {
		if w != cut {
			if err := topo.SetSwitchCapacity(w, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := solve(); !errors.Is(err, ErrNoFeasibleRoute) {
		t.Fatalf("OptimizeBetween error = %v, want wrap of ErrNoFeasibleRoute", err)
	}
}
