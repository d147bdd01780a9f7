package core

import (
	"fmt"

	"repro/internal/koala"
)

// The checkers below run only when invariant.Checking is on (tests flip
// it); each panics on the first mismatch with a brute-force recomputation.

// checkGrowSkip panics unless a growAll skipped at an unchanged Version
// equals a dry run that grows nothing: every site's headroom still equals
// the prevAvail the last round left, so the edge trigger offers nothing
// and rewrites prevAvail with the same value.
func (m *Manager) checkGrowSkip(snap koala.Snapshot) {
	for i := range m.sched.Sites() {
		if avail := m.availableForGrowth(snap, i); avail != m.prevAvail[i] {
			panic(fmt.Sprintf("core: growAll skipped at version %d, but site %d has headroom %d against prevAvail %d at t=%g",
				m.sched.Version(), i, avail, m.prevAvail[i], m.engine.Now()))
		}
	}
}

// checkShrinkTarget panics unless the cached headroom maxima equal a fresh
// rebuild and shrinkTarget's answer equals the full per-site loop over
// fresh reads.
func (m *Manager) checkShrinkTarget(snap koala.Snapshot, need, best, short int, fits bool) {
	if maxIdle, maxCap := m.headroomMax(snap); maxIdle != m.maxIdle || maxCap != m.maxCap {
		panic(fmt.Sprintf("core: cached headroom maxima (%d, %d) at version %d, a rebuild gives (%d, %d) at t=%g",
			m.maxIdle, m.maxCap, m.sched.Version(), maxIdle, maxCap, m.engine.Now()))
	}
	wantBest, wantShort, wantFits := -1, 0, false
	for i := range m.sched.Sites() {
		s := need - m.idleAt(snap, i)
		if s <= 0 {
			wantBest, wantShort, wantFits = -1, 0, true
			break
		}
		if m.sched.ShrinkableAt(i) >= s && (wantBest < 0 || s < wantShort) {
			wantBest, wantShort = i, s
		}
	}
	if best != wantBest || short != wantShort || fits != wantFits {
		panic(fmt.Sprintf("core: shrinkTarget(%d) at version %d = (%d, %d, %v), the full loop gives (%d, %d, %v) at t=%g",
			need, m.sched.Version(), best, short, fits, wantBest, wantShort, wantFits, m.engine.Now()))
	}
}
