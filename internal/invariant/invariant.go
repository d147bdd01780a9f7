// Package invariant holds the switch of the scheduling stack's test-only
// invariant checkers: the koala scheduler's running totals, scan snapshot
// and cached placement view, and the malleability manager's grow and
// shrink memos. One switch serves both packages, so a single end-to-end
// run checks every layer.
package invariant

// Checking turns the checkers on. Tests set it before starting a run and
// restore it after; production runs leave it off and pay one predictable
// branch per guarded site. A checker that finds a violation panics.
var Checking = false

// Set turns the checkers on or off and returns the previous setting.
func Set(on bool) (prev bool) {
	prev, Checking = Checking, on
	return prev
}
