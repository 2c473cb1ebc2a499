// Structural coordinate oracle: the four built-in architectures (Tree,
// Fat-Tree, VL2, BCube) are regular enough that hop distances, the tier of
// the highest switch on a shortest path, and the switch-type template of the
// lowest-ID shortest path all have closed forms over per-node coordinates.
// The generators emit those coordinates plus an architecture descriptor at
// construction time; the helpers below answer in O(1) (O(tiers) for trees,
// O(digits) for BCube) without touching the BFS machinery.
//
// The closed forms describe the HEALTHY graph only. Every helper refuses —
// returns ok=false — while any node is crashed (numDead > 0) or when the
// topology was hand-assembled via NewBuilder (FamilyIrregular), so callers
// fall back to BFS per query. internal/netstate is the intended caller; a
// taalint check (oraclebypass) keeps decision packages from bypassing the
// netstate oracle and calling these directly.
package topology

import (
	"fmt"
	"strconv"
)

// Family identifies which built-in architecture generated a topology, and
// therefore which coordinate scheme its structural closed forms use.
type Family uint8

const (
	// FamilyIrregular marks hand-built topologies with no structural oracle.
	FamilyIrregular Family = iota
	// FamilyTree covers NewTree/NewTreeWithRacks/NewPaperTree/NewCaseStudyTree.
	FamilyTree
	// FamilyFatTree covers NewFatTree.
	FamilyFatTree
	// FamilyVL2 covers NewVL2.
	FamilyVL2
	// FamilyBCube covers NewBCube.
	FamilyBCube
)

// String returns the family name used in diagnostics and docs.
func (f Family) String() string {
	switch f {
	case FamilyIrregular:
		return "irregular"
	case FamilyTree:
		return "tree"
	case FamilyFatTree:
		return "fattree"
	case FamilyVL2:
		return "vl2"
	case FamilyBCube:
		return "bcube"
	default:
		return fmt.Sprintf("family(%d)", uint8(f))
	}
}

// coordRec is the per-node coordinate emitted by the generators. Meaning is
// family-specific; the node's tier lives in Node.Tier:
//
//	Tree:     switch idx = index within its tier; server pod = access-switch
//	          index, idx = global server ordinal.
//	Fat-Tree: core idx = i (group i/half, member i%half); agg/edge pod = pod,
//	          idx = position in pod; server pod = pod, idx = edge*half + s.
//	VL2:      intermediate/aggregation idx = position in tier; ToR idx = rack;
//	          server pod = rack, idx = global server ordinal.
//	BCube:    server idx = base-n address; level-l switch idx = j (the
//	          address with digit l removed).
type coordRec struct{ pod, idx int32 }

// structure is the architecture descriptor the generators emit alongside
// coordinates: the handful of parameters the closed forms need.
type structure struct {
	family Family

	// types[t] is the switch type at tier t (all families; BCube level types).
	types []string

	// Tree: fan[t] = children per tier-t switch (t >= 1); len(fan) = depth.
	fan []int

	// Fat-Tree: half = k/2.
	half int

	// VL2: dA = aggregation count; rack r homes to aggs r%dA and (r+1)%dA.
	// vl2Base is the node ID of rack 0's ToR; spt = servers per ToR.
	dA, vl2Base, spt int

	// BCube: base n and levels = k+1 digit positions.
	n, levels int

	// tmpls are the interned stage templates StageTemplate hands out for
	// Tree (tmpls[top], the palindrome up to tier top), Fat-Tree and VL2
	// (tmpls[0..2]: one, three and five stages). Shared and read-only, so
	// a template costs no allocation per pair.
	tmpls [][]string
}

// internTemplates builds s.tmpls from s.types.
func (s *structure) internTemplates() {
	palindrome := func(top int) []string {
		tmpl := make([]string, 2*top+1)
		for i := 0; i <= top; i++ {
			tmpl[i] = s.types[i]
			tmpl[len(tmpl)-1-i] = s.types[i]
		}
		return tmpl
	}
	s.tmpls = nil
	switch s.family {
	case FamilyTree:
		for top := range s.types {
			s.tmpls = append(s.tmpls, palindrome(top))
		}
	case FamilyFatTree, FamilyVL2:
		for top := 0; top < 3 && top < len(s.types); top++ {
			s.tmpls = append(s.tmpls, palindrome(top))
		}
	}
}

// maxBCubeDigits bounds BCube address width for stack-allocated digit
// scratch: the generator caps servers at 2^20, so levels <= 21 with n=2.
const maxBCubeDigits = 24

// Structural reports whether the topology carries a structural coordinate
// oracle (it was built by one of the architecture generators). Liveness does
// not change this; degraded graphs refuse per query instead.
func (t *Topology) Structural() bool { return t.arch.family != FamilyIrregular }

// Family returns the architecture family that generated this topology, or
// FamilyIrregular for hand-built graphs.
func (t *Topology) Family() Family { return t.arch.family }

// ServersSingleHomed reports whether every server attaches to exactly one
// switch (degree 1). When true, d(x, s) = 1 + d(x, access(s)) for any x != s
// on the healthy graph — the identity the placement hot path uses to share
// distance work across all servers of a rack.
func (t *Topology) ServersSingleHomed() bool { return t.singleHomed }

// StructuralDist returns the hop distance between a and b computed from
// coordinates alone, matching Dist exactly on the healthy graph. ok=false
// when the topology is irregular, any node is crashed, or an ID is invalid —
// callers must then fall back to BFS.
func (t *Topology) StructuralDist(a, b NodeID) (int, bool) {
	if t.arch.family == FamilyIrregular || t.numDead > 0 || !t.Valid(a) || !t.Valid(b) {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	switch t.arch.family {
	case FamilyTree:
		return t.treeDist(a, b), true
	case FamilyFatTree:
		return t.fatTreeDist(a, b), true
	case FamilyVL2:
		return t.vl2Dist(a, b), true
	case FamilyBCube:
		return t.bcubeDist(a, b), true
	}
	return 0, false
}

// ServerCell returns the structural cell a server belongs to: the
// access-switch index for Tree, the pod for Fat-Tree, the rack for VL2, and
// the level-0 switch group (address / n) for BCube. Cells partition
// scheduling work across shards, so unlike the distance oracles this
// tolerates crashed nodes — a dead server still has a home cell. ok=false
// only for irregular topologies, invalid IDs, and non-servers.
func (t *Topology) ServerCell(s NodeID) (int, bool) {
	if t.arch.family == FamilyIrregular || !t.Valid(s) || !t.nodes[s].IsServer() {
		return 0, false
	}
	c := t.coords[s]
	switch t.arch.family {
	case FamilyTree, FamilyFatTree, FamilyVL2:
		return int(c.pod), true
	case FamilyBCube:
		return int(c.idx) / t.arch.n, true
	}
	return 0, false
}

// LowestCommonTier returns the tier of the highest-tier node on the lowest-ID
// shortest path between two SERVERS: the "how far up the hierarchy does this
// flow climb" answer (-1 when a == b, where the path has no switch at all).
// ok=false for non-servers, irregular topologies, or degraded graphs.
func (t *Topology) LowestCommonTier(a, b NodeID) (int, bool) {
	if t.arch.family == FamilyIrregular || t.numDead > 0 ||
		!t.Valid(a) || !t.Valid(b) || !t.nodes[a].IsServer() || !t.nodes[b].IsServer() {
		return 0, false
	}
	if a == b {
		return -1, true
	}
	ca, cb := t.coords[a], t.coords[b]
	switch t.arch.family {
	case FamilyTree:
		tier, ia, ib := 0, int(ca.pod), int(cb.pod)
		for ia != ib {
			ia /= t.arch.fan[tier+1]
			ib /= t.arch.fan[tier+1]
			tier++
		}
		return tier, true
	case FamilyFatTree:
		switch {
		case ca.pod == cb.pod && ca.idx/int32(t.arch.half) == cb.idx/int32(t.arch.half):
			return 0, true
		case ca.pod == cb.pod:
			return 1, true
		default:
			return 2, true
		}
	case FamilyVL2:
		switch {
		case ca.pod == cb.pod:
			return 0, true
		case t.vl2RacksShareAgg(int(ca.pod), int(cb.pod)):
			return 1, true
		default:
			return 2, true
		}
	case FamilyBCube:
		top := -1
		x, y := int(ca.idx), int(cb.idx)
		for l := 0; l < t.arch.levels; l++ {
			if x%t.arch.n != y%t.arch.n {
				top = l
			}
			x /= t.arch.n
			y /= t.arch.n
		}
		return top, true
	}
	return 0, false
}

// StageTemplate returns the switch-type sequence of the lowest-ID shortest
// path between two SERVERS — exactly the types of the interior nodes of
// ShortestPath(a, b), without materializing the path. nil (ok=true) when
// a == b. ok=false for non-servers, irregular topologies, or degraded graphs.
// The returned slice is shared (interned per tier on Tree, Fat-Tree and
// VL2); callers must not modify it.
func (t *Topology) StageTemplate(a, b NodeID) ([]string, bool) {
	if t.arch.family == FamilyIrregular || t.numDead > 0 ||
		!t.Valid(a) || !t.Valid(b) || !t.nodes[a].IsServer() || !t.nodes[b].IsServer() {
		return nil, false
	}
	if a == b {
		return nil, true
	}
	types := t.arch.types
	ca, cb := t.coords[a], t.coords[b]
	switch t.arch.family {
	case FamilyTree:
		top, _ := t.LowestCommonTier(a, b)
		return t.arch.tmpls[top], true
	case FamilyFatTree:
		switch {
		case ca.pod == cb.pod && ca.idx/int32(t.arch.half) == cb.idx/int32(t.arch.half):
			return t.arch.tmpls[0], true
		case ca.pod == cb.pod:
			return t.arch.tmpls[1], true
		default:
			return t.arch.tmpls[2], true
		}
	case FamilyVL2:
		switch {
		case ca.pod == cb.pod:
			return t.arch.tmpls[0], true
		case t.vl2RacksShareAgg(int(ca.pod), int(cb.pod)):
			return t.arch.tmpls[1], true
		default:
			return t.arch.tmpls[2], true
		}
	case FamilyBCube:
		// The lowest-ID shortest path corrects differing digits in ascending
		// level order: at every server hop, the adjacent switches that reduce
		// distance are exactly those at still-differing levels, and level-l
		// switch IDs strictly precede level-(l+1) IDs.
		var tmpl []string
		x, y := int(ca.idx), int(cb.idx)
		for l := 0; l < t.arch.levels; l++ {
			if x%t.arch.n != y%t.arch.n {
				tmpl = append(tmpl, types[l])
			}
			x /= t.arch.n
			y /= t.arch.n
		}
		return tmpl, true
	}
	return nil, false
}

// treeLift maps a node to (tier, index-within-tier, hops spent): servers
// lift one hop onto their access switch.
func (t *Topology) treeLift(x NodeID) (tier, idx, hops int) {
	n := t.nodes[x]
	if n.IsServer() {
		return 0, int(t.coords[x].pod), 1
	}
	return n.Tier, int(t.coords[x].idx), 0
}

func (t *Topology) treeDist(a, b NodeID) int {
	ta, ia, hops := t.treeLift(a)
	tb, ib, h2 := t.treeLift(b)
	hops += h2
	fan := t.arch.fan
	for ta < tb {
		ia /= fan[ta+1]
		ta++
		hops++
	}
	for tb < ta {
		ib /= fan[tb+1]
		tb++
		hops++
	}
	for ia != ib {
		ia /= fan[ta+1]
		ib /= fan[ta+1]
		ta++
		hops += 2
	}
	return hops
}

func (t *Topology) fatTreeDist(a, b NodeID) int {
	if t.nodes[a].Tier > t.nodes[b].Tier {
		a, b = b, a
	}
	half := int32(t.arch.half)
	ca, cb := t.coords[a], t.coords[b]
	ta, tb := t.nodes[a].Tier, t.nodes[b].Tier
	samePod := ca.pod == cb.pod
	switch {
	case ta == -1 && tb == -1: // server, server
		switch {
		case samePod && ca.idx/half == cb.idx/half:
			return 2
		case samePod:
			return 4
		default:
			return 6
		}
	case ta == -1 && tb == 0: // server, edge
		switch {
		case samePod && ca.idx/half == cb.idx:
			return 1
		case samePod:
			return 3
		default:
			return 5
		}
	case ta == -1 && tb == 1: // server, agg (edge reaches every pod agg)
		if samePod {
			return 2
		}
		return 4
	case ta == -1: // server, core
		return 3
	case ta == 0 && tb == 0: // edge, edge
		if samePod {
			return 2
		}
		return 4
	case ta == 0 && tb == 1: // edge, agg
		if samePod {
			return 1
		}
		return 3
	case ta == 0: // edge, core
		return 2
	case ta == 1 && tb == 1: // agg, agg
		if samePod || ca.idx == cb.idx {
			return 2
		}
		return 4
	case ta == 1: // agg, core: direct iff the core sits in the agg's group
		if cb.idx/half == ca.idx {
			return 1
		}
		return 3
	default: // core, core: same group shares every agg column
		if ca.idx/half == cb.idx/half {
			return 2
		}
		return 4
	}
}

// vl2RacksShareAgg reports whether racks r1 and r2 home to a common
// aggregation switch (rack r homes to aggs r%dA and (r+1)%dA).
func (t *Topology) vl2RacksShareAgg(r1, r2 int) bool {
	dA := t.arch.dA
	a1, b1 := r1%dA, (r1+1)%dA
	a2, b2 := r2%dA, (r2+1)%dA
	return a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2
}

// vl2TorDist is the distance from ToR of rack r to a non-server node x.
func (t *Topology) vl2TorDist(r int, x NodeID) int {
	cx := t.coords[x]
	switch t.nodes[x].Tier {
	case 0: // another ToR
		r2 := int(cx.idx)
		switch {
		case r == r2:
			return 0
		case t.vl2RacksShareAgg(r, r2):
			return 2
		default:
			return 4
		}
	case 1: // aggregation
		dA := t.arch.dA
		if int(cx.idx) == r%dA || int(cx.idx) == (r+1)%dA {
			return 1
		}
		return 3
	default: // intermediate
		return 2
	}
}

func (t *Topology) vl2Dist(a, b NodeID) int {
	if t.nodes[a].Tier > t.nodes[b].Tier {
		a, b = b, a
	}
	ca := t.coords[a]
	if t.nodes[a].IsServer() {
		if t.nodes[b].IsServer() {
			cb := t.coords[b]
			if ca.pod == cb.pod {
				return 2
			}
			return 2 + t.vl2TorDist(int(ca.pod), t.torOf(int(cb.pod)))
		}
		return 1 + t.vl2TorDist(int(ca.pod), b)
	}
	ta, tb := t.nodes[a].Tier, t.nodes[b].Tier
	switch {
	case ta == 0:
		return t.vl2TorDist(int(ca.idx), b)
	case ta == 1 && tb == 1: // agg, agg via any intermediate
		return 2
	case ta == 1: // agg, intermediate: fully meshed
		return 1
	default: // intermediate, intermediate via any agg
		return 2
	}
}

// torOf returns the ToR switch node of VL2 rack r. ToRs are not contiguous
// (each is followed by its rack's servers), so reconstruct the ID from the
// construction layout: dI intermediates, dA aggs, then per rack one ToR plus
// spt servers.
func (t *Topology) torOf(r int) NodeID {
	return NodeID(t.arch.vl2Base + r*(1+t.arch.spt))
}

// bcubeDigits expands x into base-n digits, least-significant first.
func (t *Topology) bcubeDigits(x int, out *[maxBCubeDigits]int, count int) {
	for i := 0; i < count; i++ {
		out[i] = x % t.arch.n
		x /= t.arch.n
	}
}

func (t *Topology) bcubeDist(a, b NodeID) int {
	if t.nodes[a].Tier > t.nodes[b].Tier || (t.nodes[a].IsSwitch() && t.nodes[b].IsServer()) {
		a, b = b, a
	}
	L := t.arch.levels
	n := t.arch.n
	ca, cb := t.coords[a], t.coords[b]
	if t.nodes[a].IsServer() && t.nodes[b].IsServer() {
		// One server hop plus one switch hop per differing digit.
		h := 0
		x, y := int(ca.idx), int(cb.idx)
		for l := 0; l < L; l++ {
			if x%n != y%n {
				h++
			}
			x /= n
			y /= n
		}
		return 2 * h
	}
	if t.nodes[a].IsServer() { // server vs level-l switch
		l := t.nodes[b].Tier
		digit := 1
		for i := 0; i < l; i++ {
			digit *= n
		}
		addr := int(ca.idx)
		removed := (addr/(digit*n))*digit + addr%digit
		if removed == int(cb.idx) {
			return 1
		}
		h := 0
		x, y := removed, int(cb.idx)
		for i := 0; i < L-1; i++ {
			if x%n != y%n {
				h++
			}
			x /= n
			y /= n
		}
		return 1 + 2*h
	}
	// switch vs switch (a != b): hop onto a member server of the first
	// switch — its free digit matches anything — then correct the rest.
	l1, l2 := t.nodes[a].Tier, t.nodes[b].Tier
	if l1 == l2 {
		h := 0
		x, y := int(ca.idx), int(cb.idx)
		for i := 0; i < L-1; i++ {
			if x%n != y%n {
				h++
			}
			x /= n
			y /= n
		}
		return 2 + 2*h
	}
	const wild = -1
	var full, da, db [maxBCubeDigits]int
	t.bcubeDigits(int(ca.idx), &da, L-1)
	t.bcubeDigits(int(cb.idx), &db, L-1)
	// Insert the wildcard digit of switch a at level l1, then drop level l2.
	pos := 0
	for i := 0; i < L; i++ {
		if i == l1 {
			full[i] = wild
			continue
		}
		full[i] = da[pos]
		pos++
	}
	h := 0
	pos = 0
	for i := 0; i < L; i++ {
		if i == l2 {
			continue
		}
		if full[i] != wild && full[i] != db[pos] {
			h++
		}
		pos++
	}
	return 2 + 2*h
}

// bcubeTypes builds the BCube per-level type names ("level0", "level1", ...).
func bcubeTypes(levels int) []string {
	out := make([]string, levels)
	for l := range out {
		out[l] = TypeLevel + strconv.Itoa(l)
	}
	return out
}
