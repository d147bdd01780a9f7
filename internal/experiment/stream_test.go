package experiment

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stats"
)

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / math.Max(scale, 1)
}

// TestKeptRecordsDoNotPerturbAggregate pins the record sink of the one
// replication loop: keeping per-job records (Run) must leave the point's
// aggregate byte-identical to the record-free path (RunStream), and the
// kept records must be the ones the aggregate counted.
func TestKeptRecordsDoNotPerturbAggregate(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 15, 60, 1)(1),
		Policy:   "FPSMA",
		Approach: "PRA",
		Grid:     smallGrid,
		Runs:     3,
		Seed:     5,
	}
	kept, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeSummary(kept.Summary())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSummary(stream.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("keeping records changed the summary:\n kept %s\nstream %s", a, b)
	}

	if kept.Jobs() != len(kept.Pooled) || len(kept.Runs) != cfg.Runs {
		t.Fatalf("kept %d records over %d runs, aggregate counted %d jobs", len(kept.Pooled), len(kept.Runs), kept.Jobs())
	}
	for i, rep := range kept.Replications {
		run := kept.Runs[i]
		if rep.Seed != run.Seed || rep.Jobs != len(run.Records) || rep.Makespan != run.Makespan {
			t.Errorf("replication %d diverges from its kept run: %+v vs seed=%d jobs=%d makespan=%v",
				i, rep, run.Seed, len(run.Records), run.Makespan)
		}
	}
	// Sketch quantiles stay within the sketch's relative error of the
	// exact nearest-rank values over the kept records.
	execs := metrics.ExecTimesOf(kept.Pooled)
	med := stream.Agg.Exec.Sketch.Quantile(0.5)
	if d := relDiff(med, stats.Percentile(execs, 50)); d > 3*stats.DefaultSketchAccuracy {
		t.Errorf("exec median: sketch %v, exact %v (rel %g)", med, stats.Percentile(execs, 50), d)
	}
}

// TestRunStreamDeterministicAcrossParallelism checks the record-free path:
// the streamed aggregate of a point does not depend on the worker count.
func TestRunStreamDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 10, 60, 1)(1),
		Grid:     smallGrid,
		Runs:     4,
		Seed:     2,
	}
	serial := cfg
	serial.Parallelism = 1
	wide := cfg
	wide.Parallelism = 4

	a, err := RunStream(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(wide)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanExecution() != b.MeanExecution() || a.MeanResponse() != b.MeanResponse() {
		t.Errorf("means differ across parallelism: %v/%v vs %v/%v",
			a.MeanExecution(), a.MeanResponse(), b.MeanExecution(), b.MeanResponse())
	}
	if a.Agg.Exec.Sketch.Quantile(0.9) != b.Agg.Exec.Sketch.Quantile(0.9) {
		t.Error("sketch quantiles differ across parallelism")
	}
	if a.MeanUtilization() != b.MeanUtilization() {
		t.Error("utilisation differs across parallelism")
	}
	sa, err := EncodeSummary(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := EncodeSummary(b.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Fatalf("streamed summaries differ across parallelism:\nserial:   %s\nparallel: %s", sa, sb)
	}
}

// TestRunStreamCallback checks every replication is reported exactly
// once, and that concurrent invocation is the caller's to synchronize.
func TestRunStreamCallback(t *testing.T) {
	cfg := Config{
		Workload:    smallWorkload("small", 5, 60, 1)(1),
		Grid:        smallGrid,
		Runs:        3,
		Seed:        1,
		Parallelism: 3,
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	res, err := RunStreamContext(context.Background(), cfg, StreamHooks{OnDone: func(rep Replication) {
		mu.Lock()
		defer mu.Unlock()
		seen[rep.Rep]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("callback saw %d replications, want 3", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("replication %d reported %d times", i, n)
		}
	}
	if res.Jobs() != 15 {
		t.Errorf("jobs = %d, want 15", res.Jobs())
	}
}

// TestRunStreamRetainsNoRecords pins the memory contract: the result
// holds aggregates and per-replication scalars only.
func TestRunStreamRetainsNoRecords(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 8, 60, 1)(1),
		Grid:     smallGrid,
		Runs:     2,
		Seed:     1,
	}
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The compile-time shape already guarantees it (StreamResult has no
	// record field); assert the aggregate counted without storing.
	if res.Agg.Jobs != 16 || res.Agg.Exec.N() != 16 {
		t.Fatalf("aggregate miscounted: %d/%d", res.Agg.Jobs, res.Agg.Exec.N())
	}
	sum := res.Summary()
	if sum.Jobs != 16 || sum.Runs != 2 || len(sum.Replications) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Exec.N != 16 || sum.Exec.Mean <= 0 || sum.Exec.Median <= 0 {
		t.Fatalf("exec summary = %+v", sum.Exec)
	}
	for _, s := range []stats.Summary{sum.Exec, sum.Response, sum.AvgProcs, sum.MaxProcs} {
		for _, q := range []float64{s.P25, s.Median, s.P75, s.P90} {
			if q < s.Min || q > s.Max {
				t.Errorf("quantile %v outside [%v, %v] in %+v", q, s.Min, s.Max, s)
			}
		}
	}
}

func TestRunStreamPropagatesErrors(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 2, 60, 1)(1),
		Grid:     smallGrid,
		Policy:   "NOPE",
		Runs:     2,
	}
	if _, err := RunStream(cfg); err == nil {
		t.Fatal("bad policy did not error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	good := Config{Workload: smallWorkload("small", 2, 60, 1)(1), Grid: smallGrid, Runs: 2}
	if _, err := RunStreamContext(ctx, good, StreamHooks{}); err == nil {
		t.Fatal("canceled context did not error")
	}
}

// TestPanickingReplicationIsAnError pins that a replication which panics
// fails its experiment with an error on every driver instead of unwinding
// a worker goroutine and taking the process down. The grid builder serves
// Prepare's one probe call and panics on every replication's call after it.
func TestPanickingReplicationIsAnError(t *testing.T) {
	panicky := func() func() *cluster.Multicluster {
		var calls atomic.Int64
		return func() *cluster.Multicluster {
			if calls.Add(1) > 1 {
				panic("grid builder exploded")
			}
			return smallGrid()
		}
	}
	cfg := func() Config {
		return Config{Workload: smallWorkload("boom", 4, 60, 1)(1), Grid: panicky(), Runs: 2, Seed: 1}
	}
	combos := []Combo{{Policy: "FPSMA", Workload: smallWorkload("boom", 4, 60, 1), Label: "FPSMA/boom"}}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := Run(cfg()); return err }},
		{"RunStream", func() error { _, err := RunStream(cfg()); return err }},
		{"RunSet", func() error {
			_, err := RunSet("PRA", combos, Config{Grid: panicky(), Runs: 2, Seed: 1})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want a replication panic error", err)
			}
		})
	}
}
