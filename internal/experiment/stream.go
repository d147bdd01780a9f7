package experiment

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file holds the package's one replication loop (localPoint.run).
// Each replication's job records are folded into a constant-memory
// metrics.Aggregate and, unless the caller asked to keep them (Run,
// RunSet: the figures and the CSV writer), dropped before the next
// replication of that worker starts. Without kept records nothing
// proportional to the job count survives a replication, which is what
// lets koalad hold many concurrent sweeps. Aggregates are merged in
// replication order, so the output is deterministic for a given config
// and seed regardless of parallelism.

// Replication is the compact summary of one completed replication —
// what koalad streams as a progress event, and all that RunStream
// retains per replication.
type Replication struct {
	// Rep is the replication index in [0, Runs); its seed is
	// Config.Seed + Rep.
	Rep  int    `json:"rep"`
	Seed uint64 `json:"seed"`

	Jobs      int     `json:"jobs"`
	Malleable int     `json:"malleable"`
	Rejected  int     `json:"rejected"`
	Makespan  float64 `json:"makespan"`
	// MeanUtilization is the time-averaged processor utilisation over
	// the replication's active span.
	MeanUtilization float64 `json:"mean_utilization"`
	// Ops is the total number of malleability operations.
	Ops float64 `json:"ops"`

	MeanExecution float64 `json:"mean_execution"`
	MeanResponse  float64 `json:"mean_response"`
}

// StreamResult pools the replications of one experiment point without
// retaining per-job records: exact counts and moments plus
// sketch-backed quantiles (see metrics.Aggregate).
type StreamResult struct {
	Config       Config
	Replications []Replication
	// Agg holds the merged aggregate for points executed in this
	// process. It is nil for results received from a remote backend —
	// only the wire summary crosses the process boundary — in which
	// case the accessors read the precomputed summary instead.
	Agg *metrics.Aggregate

	// summary, when non-nil, is the precomputed wire summary of a
	// remotely executed point (see StreamResultFromSummary).
	summary *StreamSummary
}

// StreamResultFromSummary rebuilds a StreamResult from its wire
// summary — how a remote backend's result re-enters the driver layer.
// Summary() returns sum unchanged, so EncodeSummary over the rebuilt
// result is byte-identical to the bytes the worker produced.
func StreamResultFromSummary(cfg Config, sum StreamSummary) *StreamResult {
	return &StreamResult{
		Config:       cfg,
		Replications: append([]Replication(nil), sum.Replications...),
		summary:      &sum,
	}
}

// summarizeReplication reduces a full RunResult to its compact form
// plus the per-field aggregate, after which the records are garbage.
func summarizeReplication(i int, r *RunResult) (Replication, *metrics.Aggregate) {
	agg := metrics.NewAggregate()
	agg.ObserveAll(r.Records)
	rep := Replication{
		Rep:           i,
		Seed:          r.Seed,
		Jobs:          agg.Jobs,
		Malleable:     agg.Malleable,
		Rejected:      r.Rejected,
		Makespan:      r.Makespan,
		Ops:           r.TotalOps,
		MeanExecution: agg.MeanExecution(),
		MeanResponse:  agg.MeanResponse(),
	}
	if r.Makespan > 0 {
		rep.MeanUtilization = r.Utilization.MeanOver(0, r.Makespan)
	}
	return rep, agg
}

// StreamHooks observe a streaming run's replications. Both hooks are
// optional and are invoked from worker goroutines — possibly
// concurrently — so implementations must synchronize their own state
// (koalad's event log and gauges do).
type StreamHooks struct {
	// OnStart fires when a replication's simulation begins.
	OnStart func(rep int, seed uint64)
	// OnDone fires once per completed replication, in completion order.
	OnDone func(Replication)
}

// RunStream executes cfg.Runs seeded replications like Run, but keeps
// only their aggregate, not their per-job records.
func RunStream(cfg Config) (*StreamResult, error) {
	return RunStreamContext(context.Background(), cfg, StreamHooks{})
}

// PointRunner executes one experiment point — a config's full set of
// seeded replications — and returns its streaming result. It is the
// seam between the experiment drivers (RunStream*, RunSetStream*) and
// the execution substrate: internal/backend implements it in-process
// (backend.Local, the bounded pool below) and over HTTP to worker
// daemons (backend.Remote). Every implementation must be
// deterministic: the result's Summary() encoding depends only on the
// config, never on which substrate ran it.
type PointRunner interface {
	RunPoint(ctx context.Context, cfg Config, hooks StreamHooks) (*StreamResult, error)
}

// localPoint is the in-process PointRunner: the bounded worker pool
// over the point's independent seeded replications, merged in
// replication order (deterministic for any parallelism).
type localPoint struct {
	// lim, when non-nil, replaces the per-point cfg.Parallelism pool
	// with a shared budget: concurrent calls draw replication slots
	// from the same limiter, so a whole sweep is bounded globally no
	// matter how its points interleave.
	lim parallel.Limiter
	// keep retains every replication's RunResult, per-job records
	// included, in the Result. Only Run and RunSet set it; records
	// never leave the process.
	keep bool
}

func (p localPoint) RunPoint(ctx context.Context, cfg Config, hooks StreamHooks) (*StreamResult, error) {
	res, err := p.run(ctx, cfg, hooks)
	if err != nil {
		return nil, err
	}
	return res.StreamResult, nil
}

// run is the package's one replication loop: Run, RunSet, RunStream*,
// backend.Local and koalad all reach it.
func (p localPoint) run(ctx context.Context, cfg Config, hooks StreamHooks) (*Result, error) {
	// One Prepare per point: the replications share the immutable setup
	// (resolved lookups, prepared workload spec, site index) and differ
	// only in their seeds.
	prep, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	cfg = prep.Config()
	reps := make([]Replication, cfg.Runs)
	aggs := make([]*metrics.Aggregate, cfg.Runs)
	var runs []*RunResult
	if p.keep {
		runs = make([]*RunResult, cfg.Runs)
	}
	body := func(_ context.Context, i int) error {
		r, rep, agg, err := streamOne(prep, i, hooks)
		if err != nil {
			return err
		}
		reps[i], aggs[i] = rep, agg
		if runs != nil {
			runs[i] = r
		}
		return nil
	}
	if p.lim != nil {
		err = parallel.ForEachShared(ctx, cfg.Runs, p.lim, body)
	} else {
		err = parallel.ForEach(ctx, cfg.Runs, cfg.Parallelism, body)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{StreamResult: newStreamResult(cfg, reps, aggs), Runs: runs}
	for _, r := range runs {
		res.Pooled = append(res.Pooled, r.Records...)
	}
	return res, nil
}

// streamOne executes replication i against the point's prepared setup
// and reduces it to its compact form. A panicking replication must not
// unwind the worker goroutine: it fails its experiment with an error,
// and never takes the process (koalad, or a CLI) down.
func streamOne(prep *Prepared, i int, hooks StreamHooks) (r *RunResult, rep Replication, agg *metrics.Aggregate, err error) {
	cfg := prep.Config()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s: replication %d panicked: %v\n%s", cfg.Name, i, p, debug.Stack())
		}
	}()
	seed := cfg.Seed + uint64(i)
	if hooks.OnStart != nil {
		hooks.OnStart(i, seed)
	}
	r, err = prep.RunOnce(seed)
	if err != nil {
		return nil, Replication{}, nil, err
	}
	rep, agg = summarizeReplication(i, r)
	if hooks.OnDone != nil {
		hooks.OnDone(rep)
	}
	return r, rep, agg, nil
}

// newStreamResult merges per-replication aggregates in replication
// order into a StreamResult (deterministic for any parallelism).
func newStreamResult(cfg Config, reps []Replication, aggs []*metrics.Aggregate) *StreamResult {
	out := &StreamResult{Config: cfg, Replications: reps, Agg: metrics.NewAggregate()}
	for _, agg := range aggs {
		out.Agg.Merge(agg)
	}
	return out
}

// RunStreamContext is RunStream with cancellation and progress hooks —
// a thin driver over the in-process point runner. The returned result
// merges the replication aggregates in replication order, so it is
// identical for any parallelism.
func RunStreamContext(ctx context.Context, cfg Config, hooks StreamHooks) (*StreamResult, error) {
	return localPoint{}.RunPoint(ctx, cfg, hooks)
}

// RunSetStreamVia runs every combo point of an approach through
// runner, returning one StreamResult per combo in combo order. All
// points are in flight at once — bounding actual concurrency is the
// runner's job (backend.Local shares one replication budget across
// points; backend.Remote shards whole points across worker daemons).
func RunSetStreamVia(ctx context.Context, runner PointRunner, approach string, combos []Combo, base Config) ([]*StreamResult, error) {
	return eachCombo(ctx, ComboConfigs(approach, combos, base), func(ctx context.Context, cfg Config) (*StreamResult, error) {
		return runner.RunPoint(ctx, cfg, StreamHooks{})
	})
}

// eachCombo runs point on every combo config, all in flight at once,
// and returns the results in combo order.
func eachCombo[T any](ctx context.Context, cfgs []Config, point func(context.Context, Config) (T, error)) ([]T, error) {
	out := make([]T, len(cfgs))
	err := parallel.ForEach(ctx, len(cfgs), len(cfgs), func(ctx context.Context, c int) error {
		res, err := point(ctx, cfgs[c])
		if err != nil {
			return err
		}
		out[c] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunSetStream is RunSet without per-job records: every (combo,
// replication) pair of the sweep draws from one shared pool —
// base.Parallelism bounds the total number of concurrent simulations —
// returning one StreamResult per combo, in combo order.
func RunSetStream(ctx context.Context, approach string, combos []Combo, base Config) ([]*StreamResult, error) {
	lim := parallel.NewLimiter(base.Parallelism)
	return RunSetStreamVia(ctx, localPoint{lim: lim}, approach, combos, base)
}

// Jobs returns the number of finished jobs over all replications.
func (r *StreamResult) Jobs() int {
	if r.Agg == nil {
		return r.summary.Jobs
	}
	return r.Agg.Jobs
}

// Malleable returns the number of malleable jobs over all replications.
func (r *StreamResult) Malleable() int {
	if r.Agg == nil {
		return r.summary.Malleable
	}
	return r.Agg.Malleable
}

// Rejected returns the number of rejected jobs over all replications.
func (r *StreamResult) Rejected() int {
	n := 0
	for _, rep := range r.Replications {
		n += rep.Rejected
	}
	return n
}

// MeanUtilization averages the per-replication utilisation, each taken
// over its replication's active span.
func (r *StreamResult) MeanUtilization() float64 {
	if len(r.Replications) == 0 {
		return 0
	}
	sum := 0.0
	for _, rep := range r.Replications {
		sum += rep.MeanUtilization
	}
	return sum / float64(len(r.Replications))
}

// TotalOps averages the malleability operations per replication.
func (r *StreamResult) TotalOps() float64 {
	if len(r.Replications) == 0 {
		return 0
	}
	sum := 0.0
	for _, rep := range r.Replications {
		sum += rep.Ops
	}
	return sum / float64(len(r.Replications))
}

// MeanExecution returns the mean execution time over all jobs.
func (r *StreamResult) MeanExecution() float64 {
	if r.Agg == nil {
		return r.summary.Exec.Mean
	}
	return r.Agg.MeanExecution()
}

// MeanResponse returns the mean response time over all jobs.
func (r *StreamResult) MeanResponse() float64 {
	if r.Agg == nil {
		return r.summary.Response.Mean
	}
	return r.Agg.MeanResponse()
}

// StreamSummary is the JSON form of a finished streaming experiment:
// koalad's terminal event, its GET /v1/experiments/{id} body, and the
// cached value of the result cache.
type StreamSummary struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	Jobs      int    `json:"jobs"`
	Malleable int    `json:"malleable"`
	Rejected  int    `json:"rejected"`

	MeanUtilization float64 `json:"mean_utilization"`
	OpsPerRun       float64 `json:"ops_per_run"`

	// Exec/Response summarize all jobs; AvgProcs/MaxProcs the malleable
	// subset. Moments are exact, quantiles carry the sketch's relative
	// error and are clamped to [min, max].
	Exec     stats.Summary `json:"exec"`
	Response stats.Summary `json:"response"`
	AvgProcs stats.Summary `json:"avg_procs"`
	MaxProcs stats.Summary `json:"max_procs"`

	Replications []Replication `json:"replications"`
}

// Summary renders the result in its wire form. For a remotely
// executed point the worker's summary is returned verbatim, so its
// EncodeSummary bytes are exactly what the worker persisted.
func (r *StreamResult) Summary() StreamSummary {
	if r.summary != nil {
		return *r.summary
	}
	return StreamSummary{
		Name:            r.Config.Name,
		Runs:            len(r.Replications),
		Jobs:            r.Jobs(),
		Malleable:       r.Agg.Malleable,
		Rejected:        r.Rejected(),
		MeanUtilization: r.MeanUtilization(),
		OpsPerRun:       r.TotalOps(),
		Exec:            r.Agg.Exec.Summary().Clamped(),
		Response:        r.Agg.Response.Summary().Clamped(),
		AvgProcs:        r.Agg.AvgProcs.Summary().Clamped(),
		MaxProcs:        r.Agg.MaxProcs.Summary().Clamped(),
		Replications:    r.Replications,
	}
}
