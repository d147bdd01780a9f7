package core

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/invariant"
	"repro/internal/koala"
	"repro/internal/runner"
)

// TestScanMemosFollowEveryWrite drives jobs through claim, start, growth,
// shrink and finish with the invariant checkers on, and calls growAll and
// shrinkTarget every quarter second of simulated time. The poll interval
// is longer than the run, so the KIS refreshes only on submissions and
// queue scans: between most calls Version moves only through the
// scheduler's own writes. A memo reused after a write that did not move
// Version panics against its brute-force recomputation.
func TestScanMemosFollowEveryWrite(t *testing.T) {
	defer invariant.Set(invariant.Set(true))
	sys := NewSystem(SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", 32), cluster.New("B", 16)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:        koala.WorstFit{},
			PollInterval:  1e6,
			MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}, AcquireTimeout: 60},
		},
		Manager: ManagerConfig{Policy: FPSMA{}, Approach: Manual{}},
	})
	defer sys.Scheduler.Stop()
	m, kis := sys.Manager, sys.Scheduler.KIS()

	const step, horizon = 0.25, 20000.0
	for k := 0; sys.Engine.Now() < horizon; k++ {
		switch {
		case k < 400 && k%40 == 0: // one job every 10 s, alternating kinds
			id := fmt.Sprintf("j%d", k/40)
			var err error
			if k%80 == 0 {
				_, err = sys.SubmitMalleable(id, app.GadgetProfile(), 2)
			} else {
				_, err = sys.SubmitRigid(id, app.GadgetModel(), 12)
			}
			if err != nil {
				t.Fatal(err)
			}
		case k%160 == 100: // now and then, reclaim a little from each site
			for i := range sys.Sites {
				m.shrinkSiteAt(i, 3)
			}
		}
		sys.Engine.RunUntil(sys.Engine.Now() + step)
		m.growAll(kis.Last())
		for _, need := range []int{1, 8, 20, 40} {
			m.shrinkTarget(kis.Last(), need)
		}
		if sys.allDone() {
			break
		}
	}
	if !sys.allDone() {
		t.Fatalf("jobs not terminal at t=%g", sys.Engine.Now())
	}
}

// TestGrowAllAfterAppGrowRequest puts an application-initiated grant
// between two growAll rounds. The grant rewrites prevAvail, so the round
// after it must run, not be skipped as a no-op: the granted processors
// were never handed to a runner, so the edge trigger sees them become
// available again and offers them to the job, which is at its maximum and
// declines.
func TestGrowAllAfterAppGrowRequest(t *testing.T) {
	defer invariant.Set(invariant.Set(true))
	sys := managedSystem(64, ManagerConfig{Policy: FPSMA{}, Approach: Manual{}})
	defer sys.Scheduler.Stop()
	if _, err := sys.SubmitMalleable("g", app.GadgetProfile(), 46); err != nil {
		t.Fatal(err)
	}
	sys.Engine.RunUntil(10) // started at its maximum, 18 processors idle
	m, kis := sys.Manager, sys.Scheduler.KIS()

	m.growAll(kis.Refresh()) // first observation: offers 18, declined
	declined := m.Declined()
	if declined != 1 {
		t.Fatalf("declined = %d after the first round, want 1", declined)
	}
	// Nothing changed: the round is skipped (and checked against a dry run).
	if got := m.growAll(kis.Last()); got != 0 || m.Declined() != declined {
		t.Fatalf("round at an unchanged version grew %d, declined %d", got, m.Declined())
	}

	if got := m.AppGrowRequest("A", 5); got != 5 {
		t.Fatalf("application obtained %d, want 5", got)
	}
	// The grant's KIS refresh already moves the version; the memo must be
	// void regardless, so that it cannot go stale if that refresh goes.
	if m.grownAt != 0 {
		t.Fatal("AppGrowRequest left growAll's memo set")
	}
	m.growAll(kis.Last())
	if m.Declined() != declined+1 {
		t.Fatalf("declined = %d after the grant, want %d: the re-offer was skipped", m.Declined(), declined+1)
	}
}
