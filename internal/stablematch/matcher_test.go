package stablematch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestMatcherParityWithMatch: a Matcher fed a stream of random instances
// (interleaved so slab reuse is exercised across differing shapes) must
// return exactly what the one-shot Match returns for every instance.
func TestMatcherParityWithMatch(t *testing.T) {
	f := func(seed int64, pn, hn, capSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Matcher{}
		for i := 0; i < 4; i++ {
			nP := int(pn%10) + 1 + i
			nH := int(hn%6) + 1
			caps := make([]float64, nH)
			for h := range caps {
				caps[h] = float64(int(capSeed)%3 + 1)
			}
			in := randInstance(rng, nP, nH, caps)
			want, err := Match(in)
			if err != nil {
				return false
			}
			got, err := m.Match(in)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMatcherReplay: a repeat of the previous instance replays the memoized
// result (bit-identical) whether the rows are the same slices or fresh
// content-equal copies, and any content change falls back to a full run.
func TestMatcherReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	caps := []float64{2, 1, 2}
	in := randInstance(rng, 7, 3, caps)
	in.Load = []float64{1, 1, 2, 1, 1, 1, 2}

	m := &Matcher{}
	first, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}

	// Same slices: pointer shortcut.
	again, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("replay (aliased rows) diverged: %+v vs %+v", again, first)
	}
	if again == first || &again.HostOf[0] == &first.HostOf[0] {
		t.Fatal("replay returned an aliased Result; caller must own its copy")
	}

	// Fresh content-equal copies: content comparison.
	cp := &Instance{
		NumProposers:  in.NumProposers,
		NumHosts:      in.NumHosts,
		ProposerPrefs: make([][]int, len(in.ProposerPrefs)),
		HostPrefs:     make([][]int, len(in.HostPrefs)),
		Load:          append([]float64(nil), in.Load...),
		Capacity:      append([]float64(nil), in.Capacity...),
	}
	for i, r := range in.ProposerPrefs {
		cp.ProposerPrefs[i] = append([]int(nil), r...)
	}
	for i, r := range in.HostPrefs {
		cp.HostPrefs[i] = append([]int(nil), r...)
	}
	again, err = m.Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("replay (copied rows) diverged: %+v vs %+v", again, first)
	}

	// A capacity change must miss the memo and still agree with Match.
	cp.Capacity = []float64{1, 1, 1}
	want, err := Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Match(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-change match diverged: %+v vs %+v", got, want)
	}

	// Nil load vs explicit unit loads are different instances by contract
	// (nil means defaults); the memo must not conflate them.
	unit := &Instance{
		NumProposers:  2,
		NumHosts:      2,
		ProposerPrefs: [][]int{{0, 1}, {0, 1}},
		HostPrefs:     [][]int{{0, 1}, {0, 1}},
	}
	if _, err := m.Match(unit); err != nil {
		t.Fatal(err)
	}
	withLoad := *unit
	withLoad.Load = []float64{1, 1}
	if _, err := m.Match(&withLoad); err != nil {
		t.Fatal(err)
	}
}

// TestMatcherWorkersParity: a parallel Matcher (Workers > 1) must return
// bit-identical results to the sequential one on instances large enough to
// actually cross the parallel threshold, and must report the same
// validation errors on malformed instances.
func TestMatcherWorkersParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nP, nH := 96, 48 // nP+nH >= parallelMinRows: the chunked paths run
	caps := make([]float64, nH)
	for h := range caps {
		caps[h] = 2
	}
	for trial := 0; trial < 8; trial++ {
		in := randInstance(rng, nP, nH, caps)
		seq, err1 := (&Matcher{}).Match(in)
		par, err2 := (&Matcher{Workers: 4}).Match(in)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errs %v / %v", trial, err1, err2)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: parallel result diverged from sequential", trial)
		}
	}

	// Same first error as sequential validation: corrupt one proposer row
	// (duplicate host) and one host row; the proposer-phase error must win
	// in both modes.
	in := randInstance(rng, nP, nH, caps)
	in.ProposerPrefs[40][1] = in.ProposerPrefs[40][0]
	in.HostPrefs[3][2] = in.HostPrefs[3][0]
	_, errSeq := (&Matcher{}).Match(in)
	_, errPar := (&Matcher{Workers: 4}).Match(in)
	if errSeq == nil || errPar == nil || errSeq.Error() != errPar.Error() {
		t.Fatalf("validation errors diverge: seq=%v par=%v", errSeq, errPar)
	}
}

// TestMatcherForgetThenRewriteInPlace pins the replay contract: a caller
// that recycles its preference rows (rewrites them in place between
// matches) calls Forget first, and the next match then equals a fresh
// Match of the rewritten instance — the memo's same-slice shortcut never
// sees the stale rows. MatchShared must agree with Match throughout.
func TestMatcherForgetThenRewriteInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nP, nH = 9, 4
	caps := []float64{3, 2, 2, 3}
	in := randInstance(rng, nP, nH, caps)
	m := &Matcher{}
	for round := 0; round < 6; round++ {
		want, err := Match(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.MatchShared(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recycled Matcher diverged from a fresh Match:\n got %+v\nwant %+v", round, got, want)
		}
		// Rewrite every row in place with a different instance's rows.
		m.Forget()
		next := randInstance(rng, nP, nH, caps)
		for p := range in.ProposerPrefs {
			copy(in.ProposerPrefs[p], next.ProposerPrefs[p])
		}
		for h := range in.HostPrefs {
			copy(in.HostPrefs[h], next.HostPrefs[h])
		}
	}
}

// TestMatchSharedIsMatcherOwned: MatchShared returns the Matcher's own
// Result (same object on replay) while Match hands out a private copy.
func TestMatchSharedIsMatcherOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInstance(rng, 6, 3, []float64{2, 2, 2})
	m := &Matcher{}
	a, err := m.MatchShared(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.MatchShared(in)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("replayed MatchShared returned a different Result object")
	}
	c, err := m.Match(in)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || &c.HostOf[0] == &a.HostOf[0] {
		t.Fatal("Match returned the Matcher's shared Result")
	}
	if !reflect.DeepEqual(c, a) {
		t.Fatalf("Match and MatchShared disagree: %+v vs %+v", c, a)
	}
}
