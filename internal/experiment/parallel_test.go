package experiment

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// TestRunParallelismIsDeterministic is the regression test for the
// replication pool: for a fixed seed, running a point's replications
// serially and on a wide pool must produce byte-identical summaries (the
// merged aggregate does not depend on completion order) and, with records
// kept, the same runs and value-identical pooled records.
func TestRunParallelismIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"PWA", Config{Workload: smallWorkload("det", 12, 50, 0.5)(1), Policy: "FPSMA", Approach: "PWA", Grid: smallGrid, Runs: 6, Seed: 11}},
		{"PRA", Config{Workload: smallWorkload("small", 10, 60, 1)(1), Grid: smallGrid, Runs: 4, Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, wide := tc.cfg, tc.cfg
			serial.Parallelism, wide.Parallelism = 1, 8
			a, err := Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(wide)
			if err != nil {
				t.Fatal(err)
			}
			sa, _ := EncodeSummary(a.Summary())
			sb, _ := EncodeSummary(b.Summary())
			if string(sa) != string(sb) {
				t.Fatalf("summaries differ across parallelism:\nserial:   %s\nparallel: %s", sa, sb)
			}
			if len(a.Runs) != len(b.Runs) {
				t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
			}
			for i := range a.Runs {
				if a.Runs[i].Seed != b.Runs[i].Seed || a.Runs[i].TotalOps != b.Runs[i].TotalOps {
					t.Fatalf("run %d: serial seed=%d ops=%g, parallel seed=%d ops=%g",
						i, a.Runs[i].Seed, a.Runs[i].TotalOps, b.Runs[i].Seed, b.Runs[i].TotalOps)
				}
			}
			if len(a.Pooled) != len(b.Pooled) {
				t.Fatalf("pooled lengths differ: %d vs %d", len(a.Pooled), len(b.Pooled))
			}
			for i := range a.Pooled {
				if a.Pooled[i] != b.Pooled[i] {
					t.Fatalf("pooled record %d differs:\nserial:   %+v\nparallel: %+v", i, a.Pooled[i], b.Pooled[i])
				}
			}
		})
	}
}

// TestRunSetParallelismIsDeterministic extends the determinism guarantee to
// the sweep-point fan-out: label order and every combo's pooled records are
// independent of the worker count.
func TestRunSetParallelismIsDeterministic(t *testing.T) {
	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 10, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wm", 10, 40, 1), Label: "EGS/Wm"},
		{Policy: "EQUI", Workload: smallWorkload("Wm", 10, 40, 1), Label: "EQUI/Wm"},
	}
	base := Config{Grid: smallGrid, Runs: 2, Seed: 7}

	serialBase := base
	serialBase.Parallelism = 1
	parallelBase := base
	parallelBase.Parallelism = 8

	a, err := RunSet("PRA", combos, serialBase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSet("PRA", combos, parallelBase)
	if err != nil {
		t.Fatal(err)
	}

	if strings.Join(a.Labels, ",") != strings.Join(b.Labels, ",") {
		t.Fatalf("label order differs: %v vs %v", a.Labels, b.Labels)
	}
	for _, label := range a.Labels {
		ra, rb := a.Results[label], b.Results[label]
		if len(ra.Pooled) != len(rb.Pooled) {
			t.Fatalf("%s: pooled lengths differ: %d vs %d", label, len(ra.Pooled), len(rb.Pooled))
		}
		for i := range ra.Pooled {
			if ra.Pooled[i] != rb.Pooled[i] {
				t.Fatalf("%s: pooled record %d differs", label, i)
			}
		}
	}
}

// TestRunStopsPoolOnFirstFailure checks cancellation: when a replication
// fails (here: a horizon far too short for any job to finish), the pool
// stops dispatching further replications instead of grinding through all
// of them. The Grid hook runs once per started replication, so it counts
// how many RunOnce calls were dispatched.
func TestRunStopsPoolOnFirstFailure(t *testing.T) {
	var started atomic.Int64
	cfg := Config{
		Workload: smallWorkload("stuck", 10, 10, 1)(1),
		Policy:   "FPSMA",
		Approach: "PRA",
		Grid: func() *cluster.Multicluster {
			started.Add(1)
			return smallGrid()
		},
		Runs:        64,
		Parallelism: 4,
		Horizon:     1, // no job can reach a terminal state this early
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run succeeded with an impossible horizon")
	} else if !strings.Contains(err.Error(), "not terminal") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The first failure cancels dispatch; only the replications the 4
	// workers had already picked up (plus at most one racing each worker)
	// may have started.
	if got := started.Load(); got > 16 {
		t.Fatalf("%d of 64 replications started after the first failure", got)
	}
}
