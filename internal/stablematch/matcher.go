// Matcher: slab-reusing, replay-memoizing front end to Match.
//
// The joint optimization loop (core.HitScheduler) solves one matching
// instance per container group per iteration, and successive instances over
// the same cluster share their shape exactly: same host count, same proposer
// count, and — once the preference build converges — the very same ranked
// lists. A Matcher keeps the dense rank/blacklist slabs alive between calls
// so steady-state matching allocates only the Result, and when an instance
// is provably identical to the previous one it replays the previous stable
// matching outright (deferred acceptance is deterministic, so the replay is
// bit-identical to a fresh run). This is the warm start the scheduler's
// wave loop relies on; any difference in the inputs falls back to a full
// match, and parity tests pin the two paths equal.
//
// Replay contract: the memo aliases the instance's preference rows, and
// the replay check short-cuts a row that is the very same slice as the
// memoized one without reading its contents. So a caller must keep every
// row it passed unchanged until its next Match, MatchShared or Forget
// call; to rewrite rows in place (recycled slabs), call Forget first.
package stablematch

import (
	"math"

	"repro/internal/parallel"
)

// Matcher reuses scratch slabs across Match calls and replays the previous
// result when the instance provably did not change (see the replay
// contract above). The zero value is ready to use. A Matcher must not be
// used from multiple goroutines concurrently.
type Matcher struct {
	// Workers > 1 chunks the embarrassingly-parallel phases of a match —
	// instance validation and the dense host-rank fill — across that many
	// goroutines. Deferred acceptance itself stays sequential, and the
	// result (including which error Validate reports) is identical to
	// Workers == 0: rows are disjoint, every worker owns a private stamp
	// slab, and errors reduce to the lowest row index. 0 means sequential.
	Workers int

	// Scratch slabs, regrown on demand and reset per run.
	rankBack    []int32
	hostRank    [][]int32
	blackBack   []bool
	blacklist   [][]bool
	rejectedTop []int
	next        []int
	used        []float64
	tenants     [][]int
	free        []int
	seenHosts   []int // validation stamps
	seenProps   []int

	// res is the last run's Result. Its HostOf and TenantsOf rows are
	// reused by the next run (TenantsOf rows are carved from tenantBack),
	// so it is shared: MatchShared hands it out, Match clones it.
	res        Result
	tenantBack []int

	// Replay memo: the previous instance (row slices aliased, scalars
	// copied into reused buffers); valid says res is its result.
	prev  memoInstance
	valid bool
}

// memoInstance snapshots the parts of an Instance that determine Match's
// output. Preference rows are aliased, not copied, and a row that is the
// same slice as the memoized one matches without a content comparison —
// hence the replay contract: rows stay unchanged until the next Match,
// MatchShared or Forget. Rows passed as fresh slices are compared by
// content. Callers that reuse rows verbatim (the scheduler's preference
// memo) hit the cheap path.
type memoInstance struct {
	numProposers  int
	numHosts      int
	proposerPrefs [][]int
	hostPrefs     [][]int
	load          []float64
	capacity      []float64
}

// Match validates the instance and returns a stable matching, replaying the
// previous result when the instance is provably identical to the last call's
// (replay skips re-validation too: a bit-identical copy of a valid instance
// is valid). The returned Result is owned by the caller.
func (m *Matcher) Match(in *Instance) (*Result, error) {
	res, err := m.MatchShared(in)
	if err != nil {
		return nil, err
	}
	return res.clone(), nil
}

// MatchShared is Match without the copy: the returned Result is the
// Matcher's own and stays valid only until the next Match, MatchShared or
// Forget call. The caller must not modify it.
func (m *Matcher) MatchShared(in *Instance) (*Result, error) {
	if m.valid && m.prev.matches(in) {
		return &m.res, nil
	}
	if err := m.validate(in); err != nil {
		return nil, err
	}
	m.valid = false // run overwrites res in place
	m.run(in)
	m.remember(in)
	return &m.res, nil
}

// Forget drops the replay memo, keeping the scratch slabs: the next match
// runs in full whatever it is given. Call it before rewriting rows passed
// to an earlier match in place.
func (m *Matcher) Forget() {
	m.valid = false
	clear(m.prev.proposerPrefs)
	clear(m.prev.hostPrefs)
	m.prev.proposerPrefs = m.prev.proposerPrefs[:0]
	m.prev.hostPrefs = m.prev.hostPrefs[:0]
}

// parallelMinRows is the instance size below which the chunked phases run
// sequentially regardless of Workers: goroutine handoff costs more than
// the scan it would split.
const parallelMinRows = 64

// validate is Instance.Validate with the per-row scans chunked across
// m.Workers goroutines. The returned error is exactly the one the
// sequential scan reports: phases keep their order, and within a phase
// chunks are contiguous ascending rows, so the first non-nil chunk error
// is the lowest-row error.
func (m *Matcher) validate(in *Instance) error {
	w := m.Workers
	if w > in.NumProposers+in.NumHosts {
		w = in.NumProposers + in.NumHosts
	}
	if w <= 1 || in.NumProposers+in.NumHosts < parallelMinRows {
		if err := in.checkDims(); err != nil {
			return err
		}
		m.seenHosts = growInt(m.seenHosts, in.NumHosts)
		m.seenProps = growInt(m.seenProps, in.NumProposers)
		return in.checkRows(m.seenHosts, m.seenProps)
	}
	if err := in.checkDims(); err != nil {
		return err
	}
	chunkErr := make([]error, w)
	scan := func(rows int, check func(row int, stamps []int) error, stampLen int) error {
		for c := range chunkErr {
			chunkErr[c] = nil
		}
		err := parallel.ForEach(w, w, func(c int) error {
			stamps := make([]int, stampLen)
			for row := c * rows / w; row < (c+1)*rows/w; row++ {
				if err := check(row, stamps); err != nil {
					chunkErr[c] = err
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return err // a panic in a row check, surfaced as an error
		}
		for _, err := range chunkErr {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(in.NumProposers, in.checkProposerRow, in.NumHosts); err != nil {
		return err
	}
	if err := scan(in.NumHosts, in.checkHostRow, in.NumProposers); err != nil {
		return err
	}
	return in.checkVectors()
}

// remember snapshots the instance, whose result run just left in m.res,
// for the next call's replay check. The snapshot reuses the previous
// one's buffers.
func (m *Matcher) remember(in *Instance) {
	mi := &m.prev
	mi.numProposers = in.NumProposers
	mi.numHosts = in.NumHosts
	mi.proposerPrefs = append(mi.proposerPrefs[:0], in.ProposerPrefs...)
	mi.hostPrefs = append(mi.hostPrefs[:0], in.HostPrefs...)
	mi.load = copyFloats(mi.load, in.Load)
	mi.capacity = copyFloats(mi.capacity, in.Capacity)
	m.valid = true
}

// copyFloats copies src into dst's storage, keeping src's nil-ness (nil
// means "defaults apply", which the replay check tells apart).
func copyFloats(dst, src []float64) []float64 {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// matches reports whether in would provably reproduce the memoized result:
// identical dimensions, preference rows equal (pointer shortcut, then
// content), and load/capacity vectors bitwise equal.
func (mi *memoInstance) matches(in *Instance) bool {
	if in.NumProposers != mi.numProposers || in.NumHosts != mi.numHosts {
		return false
	}
	return sameIntRows(mi.proposerPrefs, in.ProposerPrefs) &&
		sameIntRows(mi.hostPrefs, in.HostPrefs) &&
		sameFloatBits(mi.load, in.Load) &&
		sameFloatBits(mi.capacity, in.Capacity)
}

func sameIntRows(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameIntRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameIntRow(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameFloatBits compares float vectors bit-for-bit (so ±0 and NaN mismatches
// conservatively miss the memo). nil means "defaults apply", which only
// matches nil.
func sameFloatBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// clone deep-copies a Result so memo and caller cannot alias.
func (r *Result) clone() *Result {
	out := &Result{
		HostOf:    append(make([]int, 0, len(r.HostOf)), r.HostOf...),
		TenantsOf: make([][]int, len(r.TenantsOf)),
		Rounds:    r.Rounds,
	}
	for h, t := range r.TenantsOf {
		out.TenantsOf[h] = append(make([]int, 0, len(t)), t...)
	}
	return out
}

// --- slab growth/reset helpers ----------------------------------------------
//
// Each returns a length-n slice reusing the argument's backing array when it
// is big enough, with contents reset to the zero value (the range-assign
// loops compile to memclr).

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growRows(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

func growIntRows(s [][]int, n int) [][]int {
	if cap(s) < n || s == nil {
		return make([][]int, n)
	}
	return s[:n]
}

func growBoolRows(s [][]bool, n int) [][]bool {
	if cap(s) < n {
		return make([][]bool, n)
	}
	return s[:n]
}

// growTenants keeps each per-host tenant list's capacity but empties it.
func growTenants(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	s = s[:n]
	for h := range s {
		s[h] = s[h][:0]
	}
	return s
}
