package koala_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/invariant"
	"repro/internal/workload"
)

// invariantWorkloads are the RunOnce golden workloads (Wm and Wmr cut to
// 60 jobs) plus the contended queue: Wmr at 1 s inter-arrival, 1,200 jobs,
// under the busy PWA background.
func invariantWorkloads(short bool) []experiment.Config {
	cut := func(s workload.Spec) workload.Spec {
		s.Jobs = 60
		return s
	}
	cfgs := []experiment.Config{{Workload: cut(workload.Wm(1))}}
	for _, placement := range []string{"WF", "CF", "CM", "FCM"} {
		cfgs = append(cfgs, experiment.Config{Workload: cut(workload.Wmr(1)), Placement: placement})
	}
	if !short {
		wl := workload.Wmr(101)
		wl.Name, wl.Jobs, wl.InterArrival = "Wmr-1s", 1200, 1
		bg := experiment.PWABackground()
		cfgs = append(cfgs, experiment.Config{Workload: wl, Background: &bg})
	}
	return cfgs
}

// TestRunningTotalsMatchBruteForce runs every approach under FPSMA and EGS
// with the invariant checkers on: each InflightGrowthAt and ShrinkableAt
// read is compared with the sum over the site's running malleable jobs,
// each in-scan snapshot with a fresh KIS reading, each reused placement
// view with a rebuild, each growAll skipped at an unchanged Version with a
// dry run, and each O(1) shrinkTarget answer with the full per-site loop.
// Any mismatch panics and fails the test.
func TestRunningTotalsMatchBruteForce(t *testing.T) {
	prev := invariant.Set(true)
	// Cleanup, not defer: the parallel subtests run after this body returns.
	t.Cleanup(func() { invariant.Set(prev) })
	for _, approach := range []string{"PRA", "PWA", "PWAV", "MANUAL"} {
		for _, policy := range []string{"FPSMA", "EGS"} {
			for _, cfg := range invariantWorkloads(testing.Short()) {
				cfg.Approach, cfg.Policy = approach, policy
				cfg.Name = approach + "/" + policy + "/" + cfg.Workload.Name
				if cfg.Placement != "" {
					cfg.Name += "/" + cfg.Placement
				}
				t.Run(cfg.Name, func(t *testing.T) {
					t.Parallel()
					res, err := experiment.RunOnce(cfg, 42)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Records)+res.Rejected != cfg.Workload.Jobs {
						t.Fatalf("%d records + %d rejected, want %d jobs", len(res.Records), res.Rejected, cfg.Workload.Jobs)
					}
				})
			}
		}
	}
}
