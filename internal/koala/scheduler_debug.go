package koala

import "fmt"

// The checkers below run only when invariant.Checking is on (tests flip
// it); each panics on the first mismatch with a brute-force recomputation.

// checkTotals panics unless the running totals of site i equal the
// brute-force sums over its running malleable jobs.
func (s *Scheduler) checkTotals(i int) {
	inflight, shrinkable := 0, 0
	for _, j := range s.running[i] {
		if d := j.PlannedProcs() - j.HeldProcs(); d > 0 {
			inflight += d
		}
		if d := j.PlannedProcs() - j.MinProcs(); d > 0 {
			shrinkable += d
		}
	}
	if inflight != s.inflight[i] || shrinkable != s.shrinkable[i] {
		panic(fmt.Sprintf("koala: site %d at t=%g: inflight total %d, summed %d; shrinkable total %d, summed %d",
			i, s.engine.Now(), s.inflight[i], inflight, s.shrinkable[i], shrinkable))
	}
}

// checkScanSnap panics unless the snapshot taken at the start of the
// current ScanQueue still equals a fresh reading of every cluster.
func (s *Scheduler) checkScanSnap() {
	snap := s.scanSnap
	if snap.Time != s.engine.Now() {
		panic(fmt.Sprintf("koala: scan snapshot from t=%g used at t=%g", snap.Time, s.engine.Now()))
	}
	for i, site := range s.sites {
		if got, want := snap.At(i), s.kis.probe(site); got != want {
			panic(fmt.Sprintf("koala: scan snapshot of %s is %+v, a fresh KIS reading is %+v at t=%g",
				site.Name(), got, want, snap.Time))
		}
	}
}

// checkView panics unless the placement view cached at the current
// Version equals a fresh rebuild over snap.
func (s *Scheduler) checkView(snap Snapshot) {
	for i, site := range s.sites {
		if got, want := s.viewBuf[i], s.viewAt(snap, i); got != want {
			panic(fmt.Sprintf("koala: cached placement view of %s is %+v, a rebuild is %+v at t=%g (version %d)",
				site.Name(), got, want, snap.Time, s.Version()))
		}
	}
}
