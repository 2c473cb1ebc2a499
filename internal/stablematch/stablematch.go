// Package stablematch implements many-to-one stable matching (the
// hospitals/residents generalization of Gale–Shapley's stable marriage) with
// per-host capacities, proposer-side blacklists and the "rejected-top"
// pruning used by the paper's Tasks Assignment Algorithm (Algorithm 2).
//
// Terminology follows the paper: *proposers* are containers hosting Map or
// Reduce tasks; *hosts* are servers. Each proposer is placed on at most one
// host; a host accepts proposers until its capacity is exhausted, then
// rejects its least-preferred tenants.
package stablematch

import (
	"errors"
	"fmt"

	"repro/internal/parallel"
)

// Unmatched marks a proposer that no host accepted.
const Unmatched = -1

// Instance describes one many-to-one matching problem.
//
// Preferences are given as ranked index lists: ProposerPrefs[p] lists host
// indices in decreasing preference for proposer p (hosts absent from the
// list are unacceptable to p); HostPrefs[h] likewise lists proposer indices
// in decreasing preference for host h (proposers absent are unacceptable to
// h and will always be rejected).
type Instance struct {
	NumProposers int
	NumHosts     int
	// ProposerPrefs[p] is proposer p's ranked host list, best first.
	ProposerPrefs [][]int
	// HostPrefs[h] is host h's ranked proposer list, best first.
	HostPrefs [][]int
	// Load[p] is the capacity consumed on a host by proposer p. If nil, every
	// proposer consumes 1.
	Load []float64
	// Capacity[h] is host h's total capacity. If nil, every host has
	// capacity 1 (one-to-one matching).
	Capacity []float64
}

// Result is the outcome of Match.
type Result struct {
	// HostOf[p] is the host matched to proposer p, or Unmatched.
	HostOf []int
	// TenantsOf[h] lists the proposers matched to host h, in the order the
	// host ranks them (best first).
	TenantsOf [][]int
	// Rounds is the number of proposal rounds executed.
	Rounds int
}

// Validate checks structural consistency of the instance.
func (in *Instance) Validate() error {
	if err := in.checkDims(); err != nil {
		return err
	}
	return in.checkRows(make([]int, in.NumHosts), make([]int, in.NumProposers))
}

// checkRows is Validate after checkDims, over zeroed stamp slabs of
// NumHosts and NumProposers entries: duplicate detection via one stamp
// array per side (stamp = row index + 1), instead of allocating a set per
// row.
func (in *Instance) checkRows(seenHosts, seenProps []int) error {
	for p := range in.ProposerPrefs {
		if err := in.checkProposerRow(p, seenHosts); err != nil {
			return err
		}
	}
	for h := range in.HostPrefs {
		if err := in.checkHostRow(h, seenProps); err != nil {
			return err
		}
	}
	return in.checkVectors()
}

// checkDims validates the instance's dimensions against its row counts.
func (in *Instance) checkDims() error {
	if in.NumProposers < 0 || in.NumHosts < 0 {
		return errors.New("stablematch: negative dimensions")
	}
	if len(in.ProposerPrefs) != in.NumProposers {
		return fmt.Errorf("stablematch: ProposerPrefs has %d rows, want %d", len(in.ProposerPrefs), in.NumProposers)
	}
	if len(in.HostPrefs) != in.NumHosts {
		return fmt.Errorf("stablematch: HostPrefs has %d rows, want %d", len(in.HostPrefs), in.NumHosts)
	}
	return nil
}

// checkProposerRow validates one proposer's ranked list. seenHosts is a
// stamp array of at least NumHosts entries; rows stamp with p+1, so one
// zero-initialized slab serves any set of distinct rows without resets.
func (in *Instance) checkProposerRow(p int, seenHosts []int) error {
	for _, h := range in.ProposerPrefs[p] {
		if h < 0 || h >= in.NumHosts {
			return fmt.Errorf("stablematch: proposer %d ranks invalid host %d", p, h)
		}
		if seenHosts[h] == p+1 {
			return fmt.Errorf("stablematch: proposer %d ranks host %d twice", p, h)
		}
		seenHosts[h] = p + 1
	}
	return nil
}

// checkHostRow validates one host's ranked list (stamp contract as above,
// with h+1 stamps over a NumProposers-sized slab).
func (in *Instance) checkHostRow(h int, seenProps []int) error {
	for _, p := range in.HostPrefs[h] {
		if p < 0 || p >= in.NumProposers {
			return fmt.Errorf("stablematch: host %d ranks invalid proposer %d", h, p)
		}
		if seenProps[p] == h+1 {
			return fmt.Errorf("stablematch: host %d ranks proposer %d twice", h, p)
		}
		seenProps[p] = h + 1
	}
	return nil
}

// checkVectors validates the optional load/capacity vectors.
func (in *Instance) checkVectors() error {
	if in.Load != nil {
		if len(in.Load) != in.NumProposers {
			return fmt.Errorf("stablematch: Load has %d entries, want %d", len(in.Load), in.NumProposers)
		}
		for p, l := range in.Load {
			if l <= 0 {
				return fmt.Errorf("stablematch: proposer %d has non-positive load %v", p, l)
			}
		}
	}
	if in.Capacity != nil {
		if len(in.Capacity) != in.NumHosts {
			return fmt.Errorf("stablematch: Capacity has %d entries, want %d", len(in.Capacity), in.NumHosts)
		}
		for h, c := range in.Capacity {
			if c < 0 {
				return fmt.Errorf("stablematch: host %d has negative capacity %v", h, c)
			}
		}
	}
	return nil
}

func (in *Instance) load(p int) float64 {
	if in.Load == nil {
		return 1
	}
	return in.Load[p]
}

func (in *Instance) capacity(h int) float64 {
	if in.Capacity == nil {
		return 1
	}
	return in.Capacity[h]
}

// Match runs proposer-proposing deferred acceptance and returns a stable
// matching. Following Algorithm 2, whenever a host over capacity rejects its
// least-preferred tenant it records the rejection ("rejected-top"), and any
// proposer the host ranks at or below a rejected proposer adds that host to
// its blacklist — those proposals are skipped outright, which preserves the
// outcome while bounding work by O(M×N) proposals.
//
// Match allocates its dense scratch fresh every call; callers matching many
// similarly-shaped instances should hold a Matcher instead, which reuses the
// slabs and replays provably-identical instances.
func Match(in *Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	m := new(Matcher)
	m.run(in)
	return &m.res, nil // the throwaway Matcher hands its Result over whole
}

// run executes deferred acceptance over m's scratch slabs and leaves the
// outcome in m.res, overwriting the previous one. The instance must
// already be validated.
func (m *Matcher) run(in *Instance) {
	nP, nH := in.NumProposers, in.NumHosts

	// hostRank[h][p] = 1 + rank of proposer p at host h (lower is better);
	// 0 = unacceptable. Dense int32 rows over one backing slab; the +1 shift
	// makes the per-run reset a plain zeroing, which the runtime turns into a
	// memclr, instead of a -1 fill.
	m.rankBack = growInt32(m.rankBack, nH*nP)
	m.hostRank = growRows(m.hostRank, nH)
	hostRank := m.hostRank
	fillRows := func(lo, hi int) {
		for h := lo; h < hi; h++ {
			hostRank[h] = m.rankBack[h*nP : (h+1)*nP]
			for r, p := range in.HostPrefs[h] {
				hostRank[h][p] = int32(r) + 1
			}
		}
	}
	if w := m.Workers; w > 1 && nH >= parallelMinRows {
		// Rows are disjoint slices of one slab, so chunked fills write
		// disjoint memory and the table is bit-identical to a sequential
		// fill. Row checks cannot error; a panic still surfaces.
		if err := parallel.ForEach(w, w, func(c int) error {
			fillRows(c*nH/w, (c+1)*nH/w)
			return nil
		}); err != nil {
			panic(err)
		}
	} else {
		fillRows(0, nH)
	}

	// blacklist[p][h]: p must not propose to h anymore. Dense bool rows
	// over one backing slab.
	m.blackBack = growBool(m.blackBack, nP*nH)
	m.blacklist = growBoolRows(m.blacklist, nP)
	blacklist := m.blacklist
	for p := range blacklist {
		blacklist[p] = m.blackBack[p*nH : (p+1)*nH]
	}
	// rejectedTop[h] = worst (highest) rank the host has explicitly rejected;
	// -1 if none. Once host h rejects the proposer it ranks at position r,
	// every proposer ranked >= r blacklists h.
	m.rejectedTop = growInt(m.rejectedTop, nH)
	rejectedTop := m.rejectedTop
	for h := range rejectedTop {
		rejectedTop[h] = -1
	}

	m.next = growInt(m.next, nP) // next index into ProposerPrefs[p]
	next := m.next
	hostOf := m.res.HostOf
	if cap(hostOf) < nP || hostOf == nil {
		hostOf = make([]int, nP)
	}
	hostOf = hostOf[:nP]
	for p := range hostOf {
		hostOf[p] = Unmatched
	}
	m.used = growFloat(m.used, nH)
	used := m.used
	m.tenants = growTenants(m.tenants, nH)
	tenants := m.tenants // unsorted during the loop

	free := m.free[:0]
	for p := 0; p < nP; p++ {
		free = append(free, p)
	}

	propagateRejection := func(h, rank int) {
		if rank <= rejectedTop[h] {
			return
		}
		rejectedTop[h] = rank
		for _, worse := range in.HostPrefs[h][rank:] {
			blacklist[worse][h] = true
		}
	}

	rounds := 0
	for len(free) > 0 {
		rounds++
		p := free[len(free)-1]
		free = free[:len(free)-1]

		// Advance to p's best not-yet-tried, not-blacklisted host.
		h := -1
		for next[p] < len(in.ProposerPrefs[p]) {
			cand := in.ProposerPrefs[p][next[p]]
			next[p]++
			if blacklist[p][cand] {
				continue
			}
			if hostRank[cand][p] == 0 { // unacceptable to the host
				continue
			}
			h = cand
			break
		}
		if h == -1 {
			continue // p exhausts its list: stays unmatched
		}

		// Tentatively accept.
		hostOf[p] = h
		used[h] += in.load(p)
		tenants[h] = append(tenants[h], p)

		// Evict least-preferred tenants while over capacity (Algorithm 2
		// lines 8–13). Stored ranks are shifted by +1, so the comparison
		// order is unchanged and the real rank is worstRank-1.
		for used[h] > in.capacity(h) {
			worstIdx, worstRank := -1, 0
			for i, q := range tenants[h] {
				if r := int(hostRank[h][q]); r > worstRank {
					worstIdx, worstRank = i, r
				}
			}
			if worstIdx < 0 {
				break // defensive: no tenants yet over capacity cannot happen
			}
			evicted := tenants[h][worstIdx]
			tenants[h] = append(tenants[h][:worstIdx], tenants[h][worstIdx+1:]...)
			used[h] -= in.load(evicted)
			hostOf[evicted] = Unmatched
			propagateRejection(h, worstRank-1)
			free = append(free, evicted)
			if evicted == p {
				break // the newcomer itself was the worst; move on
			}
		}
	}
	m.free = free[:0]

	// Present tenants in host preference order. Every proposer sits with
	// at most one host, so all rows fit one nP-entry slab (never regrown
	// here); each row is capped at its own length.
	tenantsOf := growIntRows(m.res.TenantsOf, nH)
	if cap(m.tenantBack) < nP || m.tenantBack == nil {
		m.tenantBack = make([]int, 0, nP)
	}
	back := m.tenantBack[:0]
	for h := range tenants {
		start := len(back)
		for _, p := range in.HostPrefs[h] {
			if hostOf[p] == h {
				back = append(back, p)
			}
		}
		tenantsOf[h] = back[start:len(back):len(back)]
	}
	m.tenantBack = back
	m.res = Result{HostOf: hostOf, TenantsOf: tenantsOf, Rounds: rounds}
}

// BlockingPair describes a proposer/host pair that would both rather be
// matched with each other than with their current assignment.
type BlockingPair struct {
	Proposer, Host int
}

// FindBlockingPairs returns every blocking pair of a matching, for
// verification: (p, h) blocks when p strictly prefers h to its current host
// (or is unmatched and finds h acceptable), h finds p acceptable, and h
// either has spare capacity for p or tenants it likes strictly less whose
// eviction frees enough room.
func FindBlockingPairs(in *Instance, res *Result) []BlockingPair {
	hostRank := make([]map[int]int, in.NumHosts)
	for h, prefs := range in.HostPrefs {
		hostRank[h] = make(map[int]int, len(prefs))
		for r, p := range prefs {
			hostRank[h][p] = r
		}
	}
	propRank := make([]map[int]int, in.NumProposers)
	for p, prefs := range in.ProposerPrefs {
		propRank[p] = make(map[int]int, len(prefs))
		for r, h := range prefs {
			propRank[p][h] = r
		}
	}
	used := make([]float64, in.NumHosts)
	for p, h := range res.HostOf {
		if h != Unmatched {
			used[h] += in.load(p)
		}
	}

	var out []BlockingPair
	for p := 0; p < in.NumProposers; p++ {
		cur := res.HostOf[p]
		for h := 0; h < in.NumHosts; h++ {
			hr, hOK := hostRank[h][p]
			pr, pOK := propRank[p][h]
			if !hOK || !pOK || h == cur {
				continue
			}
			if cur != Unmatched {
				if curRank, ok := propRank[p][cur]; ok && curRank <= pr {
					continue // p does not strictly prefer h
				}
			}
			// Room after evicting strictly-worse tenants?
			avail := in.capacity(h) - used[h]
			for _, q := range res.TenantsOf[h] {
				if hostRank[h][q] > hr {
					avail += in.load(q)
				}
			}
			if avail >= in.load(p) {
				out = append(out, BlockingPair{Proposer: p, Host: h})
			}
		}
	}
	return out
}

// IsStable reports whether the matching has no blocking pairs.
func IsStable(in *Instance, res *Result) bool {
	return len(FindBlockingPairs(in, res)) == 0
}
