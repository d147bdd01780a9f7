// Package experiment wires the full stack — workloads, KOALA, the
// malleability manager and the metrics collector — into repeatable
// experiments, one per table/figure of the paper's evaluation (§VI–VII).
// Each experiment point averages several independent seeded runs, as the
// paper does ("we have done 4 runs for each combination").
package experiment

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one experiment point: a workload under a malleability
// policy and a job-management approach.
type Config struct {
	Name string
	// Workload is the workload spec; its Seed is overridden per run.
	Workload workload.Spec
	// Policy is FPSMA, EGS, EQUI or FOLD.
	Policy string
	// Approach is PRA or PWA.
	Approach string
	// Placement names the KOALA placement policy (default WF).
	Placement string
	// Runs is the number of independent runs to pool (default 4).
	Runs int
	// Parallelism bounds the number of concurrently executing simulations:
	// a point's replications run on a pool of this size, and RunSet and
	// RunSetStream draw every combo's replications from one shared budget
	// of this size. 0 means one worker per CPU; 1 runs serially. Results
	// are identical to serial execution for any value: each replication
	// owns its seed and its engine, and results merge in replication order.
	Parallelism int
	// Seed is the base seed; run i uses Seed+i.
	Seed uint64
	// PollInterval is the scheduler/manager polling period (default 5 s).
	PollInterval float64
	// SamplePeriod is the utilisation sampling period (default 10 s).
	SamplePeriod float64
	// GrowthReserve keeps processors per cluster for local users (§V-B).
	GrowthReserve int
	// Horizon bounds each run's virtual time (default: submission span
	// plus a generous drain window).
	Horizon float64
	// Grid overrides the testbed (default DAS-3); used by small tests.
	// The closure runs once per replication, possibly from concurrent
	// worker goroutines, so it must build a fresh Multicluster on every
	// call — returning a shared cached instance would race.
	Grid func() *cluster.Multicluster
	// GramOverride replaces the default GRAM latency model (ablations).
	GramOverride *gram.Config
	// Background adds bypassing local users (§V-B). When nil, the shared
	// DAS-3 conditions of DefaultBackground are used; set NoBackground for
	// a dedicated (idle) testbed.
	Background *workload.BackgroundSpec
	// NoBackground disables background load entirely.
	NoBackground bool
	// DisableMalleability runs plain KOALA (rigid baseline comparisons).
	DisableMalleability bool
	// SimStats, when non-nil, passively collects kernel and manager
	// statistics (events scheduled/fired/canceled, peak pending,
	// grow/shrink decisions) across the config's replications. It is
	// observability only: it never changes results and is excluded from
	// the fingerprint, so a config with and without it is the same
	// experiment. Local execution only — it does not cross the wire to
	// remote backends.
	SimStats *obs.SimStats
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "FPSMA"
	}
	if c.Approach == "" {
		c.Approach = "PRA"
	}
	if c.Placement == "" {
		c.Placement = "WF"
	}
	if c.Runs <= 0 {
		c.Runs = 4
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 15
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 10
	}
	if c.Horizon <= 0 {
		span := float64(c.Workload.Jobs) * c.Workload.InterArrival
		c.Horizon = span + 40000
	}
	if c.Grid == nil {
		c.Grid = cluster.DAS3
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s/%s/%s", c.Approach, c.Policy, c.Workload.Name)
	}
	if c.Background == nil && !c.NoBackground {
		bg := DefaultBackground()
		c.Background = &bg
	}
	return c
}

// DefaultBackground models the concurrent DAS-3 users during the paper's
// PRA experiments, who bypass KOALA and whose activity KOALA discovers only
// by polling (§V-B, §VI-C): a moderate load that "does not disturb the
// measures" (§VI-C).
func DefaultBackground() workload.BackgroundSpec {
	return workload.BackgroundSpec{MeanInterArrival: 240, MeanDuration: 480, MaxNodes: 24}
}

// PWABackground models the busier shared-testbed conditions under which the
// PWA experiments operate: §VII-B requires the system load to be high
// enough that mandatory shrinks actually happen ("if the system load is
// low, no job is shrunk and PWA behaves like PRA"). The W' workloads halve
// the inter-arrival time *and* the paper's runs competed with heavy
// concurrent usage; this preset recreates that regime.
func PWABackground() workload.BackgroundSpec {
	return workload.BackgroundSpec{MeanInterArrival: 90, MeanDuration: 1200, MaxNodes: 48}
}

// RunResult is the outcome of a single seeded run.
type RunResult struct {
	Seed        uint64
	Records     []metrics.JobRecord
	Rejected    int
	Utilization *stats.TimeSeries
	GrowOps     *stats.TimeSeries
	ShrinkOps   *stats.TimeSeries
	Makespan    float64
	TotalOps    float64
	// PlaceTries counts the scheduler's placement attempts over all jobs
	// (§IV-A), a deterministic measure of the run's queue-scan work.
	PlaceTries int
}

// Result is a point's streaming result plus the per-job records the
// figures need: the aggregate accessors (jobs, means, utilisation, ops,
// rejected) come from the embedded StreamResult, and Runs/Pooled keep
// every replication's RunResult.
type Result struct {
	*StreamResult
	Runs []*RunResult
	// Pooled concatenates the per-run job records (the paper's CDFs are
	// computed over all jobs of all runs of a combination).
	Pooled []metrics.JobRecord
}

// RunOnce executes one seeded run. It is Prepare followed by a single
// Prepared.RunOnce — the batched path through Prepared is the same code,
// so both modes produce byte-identical results for the same config and
// seed.
func RunOnce(cfg Config, seed uint64) (*RunResult, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunOnce(seed)
}

func lastEnd(recs []metrics.JobRecord) float64 {
	end := 0.0
	for _, r := range recs {
		if r.EndTime > end {
			end = r.EndTime
		}
	}
	return end
}

// Run executes cfg.Runs seeded runs and pools their records. The runs are
// independent (run i is seeded Seed+i and builds its own engine), so they
// execute on a bounded worker pool of cfg.Parallelism goroutines; the
// pooled records are in the same order as a serial loop.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: a canceled ctx (or the first failing
// run) stops the pool from dispatching further runs. It is the streaming
// point loop with per-job records kept.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return localPoint{keep: true}.run(ctx, cfg, StreamHooks{})
}

// MalleableRecords returns the pooled records restricted to malleable jobs
// (the population whose sizes Figs. 7a/b and 8a/b report).
func (r *Result) MalleableRecords() []metrics.JobRecord {
	return metrics.OnlyMalleable(r.Pooled)
}
