package core

import (
	"testing"

	"repro/internal/stablematch"
)

// TestRunStateResetDropsMemos: a recycled runState starts every call with
// no memo of the last one — no solve records, no preference rows, no
// distance rows, matchers that match in full — while its slabs rewind to
// reuse their memory.
func TestRunStateResetDropsMemos(t *testing.T) {
	st := newRunState()
	st.solves[1] = flowSolve{full: true}
	st.prefs[2] = prefRow{orig: 3}
	st.rowsValid = true

	// Two proposers compete for one single-slot host; all rows are slab
	// carvings, as in assignGroup.
	row := take(&st.ints, 4)
	copy(row, []int{0, 0, 0, 1}) // both rank host 0; host 0 ranks 0 over 1
	in := &stablematch.Instance{
		NumProposers:  2,
		NumHosts:      1,
		ProposerPrefs: [][]int{row[0:1], row[1:2]},
		HostPrefs:     [][]int{row[2:4]},
	}
	first, err := st.matchers[0].MatchShared(in)
	if err != nil {
		t.Fatal(err)
	}
	if first.HostOf[0] != 0 || first.HostOf[1] != stablematch.Unmatched {
		t.Fatalf("host 0 should take proposer 0: %+v", first)
	}

	st.reset()
	if len(st.solves) != 0 || len(st.prefs) != 0 || st.rowsValid {
		t.Fatalf("reset kept a memo: %d solves, %d prefs, rowsValid=%v", len(st.solves), len(st.prefs), st.rowsValid)
	}
	again := take(&st.ints, 4)
	if &again[0] != &row[0] {
		t.Fatal("reset did not rewind the slab")
	}
	// The next call rewrites the same slab rows in place: host 0 now ranks
	// proposer 1 first. A matcher that kept its memo would take the
	// same-slice shortcut and replay the stale match.
	copy(again, []int{0, 0, 1, 0})
	res, err := st.matchers[0].MatchShared(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostOf[1] != 0 || res.HostOf[0] != stablematch.Unmatched {
		t.Fatalf("matcher replayed a stale match after reset: %+v", res)
	}
}
