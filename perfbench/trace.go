package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The traced run builds each replication itself with core.NewSystem, the
// same construction Prepared.RunOnce performs, with decorators around
// the layer interfaces:
//
//   - koala.PlacementPolicy: times every Place call and counts the useful
//     ones;
//   - core.Approach: times the manager's rounds (poll, processors
//     available, placement blocked), self time only;
//   - core.Policy: times Grow and Shrink;
//   - koala.Hooks, installed with Scheduler.SetHooks around the Manager:
//     counts polls, blocked placements and Reserved calls, and samples
//     the queue length. Reserved is counted, not timed: it runs once per
//     site per placement attempt.
//
// Each decorator forwards every call unchanged. The scheduler checks its
// hooks for runner.AppGrowHandler, so the hooks decorator forwards that
// method too. The replications' results must stay byte-identical to
// Prepared.RunOnce's, which the traced run checks through the stored
// point digests.

// layer indexes the timed boundaries.
type layer int

const (
	lRep layer = iota
	lGenerate
	lNewSystem
	lPoll
	lAvail
	lBlocked
	lPlace
	lPolicy
	nLayers
)

// frame is an open timed interval; child sums its traced children.
type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// span is one recorded interval, written out when the run ends.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"` // index into the span list, -1 for a root
	Rep    string  `json:"rep,omitempty"`
}

// repCounts are one replication's exact work counters.
type repCounts struct {
	fired, canceled, pendingPeak  int64
	placeCalls, placeOK           int64
	blocked, reserved, polls      int64
	queuePeak                     int64
	grow, shrink, declined        int64
	submitted, activated, release int64
}

func (c *repCounts) add(o repCounts) {
	c.fired += o.fired
	c.canceled += o.canceled
	c.placeCalls += o.placeCalls
	c.placeOK += o.placeOK
	c.blocked += o.blocked
	c.reserved += o.reserved
	c.polls += o.polls
	c.grow += o.grow
	c.shrink += o.shrink
	c.declined += o.declined
	c.submitted += o.submitted
	c.activated += o.activated
	c.release += o.release
	c.pendingPeak = max(c.pendingPeak, o.pendingPeak)
	c.queuePeak = max(c.queuePeak, o.queuePeak)
}

// tracer accumulates self time per layer and the current replication's
// counters. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	stack []frame
	self  [nLayers]time.Duration
	cur   repCounts

	spans     []span
	spanStack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enter(l layer) { t.stack = append(t.stack, frame{l: l, start: time.Now()}) }

func (t *tracer) exit() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.l] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name, rep string) {
	parent := -1
	if n := len(t.spanStack); n > 0 {
		parent = t.spanStack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.us(time.Now()), Parent: parent, Rep: rep})
	t.spanStack = append(t.spanStack, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.spanStack[len(t.spanStack)-1]
	t.spanStack = t.spanStack[:len(t.spanStack)-1]
	t.spans[i].End = t.us(time.Now())
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

func (t *tracer) sampleQueue(n int) { t.cur.queuePeak = max(t.cur.queuePeak, int64(n)) }

// writeSpans dumps the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type tracedPlacement struct {
	inner koala.PlacementPolicy
	t     *tracer
}

func (p tracedPlacement) Name() string { return p.inner.Name() }

func (p tracedPlacement) Place(spec *koala.JobSpec, snap koala.Snapshot, kis *koala.KIS, sites []*koala.Site) ([]koala.ComponentPlacement, bool) {
	p.t.cur.placeCalls++
	p.t.enter(lPlace)
	pl, ok := p.inner.Place(spec, snap, kis, sites)
	p.t.exit()
	if ok {
		p.t.cur.placeOK++
	}
	return pl, ok
}

type tracedPolicy struct {
	inner core.Policy
	t     *tracer
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Grow(jobs []*koala.Job, v int) int {
	p.t.enter(lPolicy)
	n := p.inner.Grow(jobs, v)
	p.t.exit()
	return n
}

func (p tracedPolicy) Shrink(jobs []*koala.Job, v int) int {
	p.t.enter(lPolicy)
	n := p.inner.Shrink(jobs, v)
	p.t.exit()
	return n
}

type tracedApproach struct {
	inner core.Approach
	t     *tracer
}

func (a tracedApproach) Name() string { return a.inner.Name() }

func (a tracedApproach) OnPoll(m *core.Manager, snap koala.Snapshot) {
	a.t.enter(lPoll)
	a.inner.OnPoll(m, snap)
	a.t.exit()
}

func (a tracedApproach) OnProcessorsAvailable(m *core.Manager) {
	a.t.enter(lAvail)
	a.inner.OnProcessorsAvailable(m)
	a.t.exit()
}

func (a tracedApproach) OnPlacementBlocked(m *core.Manager, j *koala.Job) bool {
	a.t.enter(lBlocked)
	ok := a.inner.OnPlacementBlocked(m, j)
	a.t.exit()
	return ok
}

type tracedHooks struct {
	m     *core.Manager
	sched *koala.Scheduler
	t     *tracer
}

func (h tracedHooks) Poll(snap koala.Snapshot) {
	h.t.cur.polls++
	h.t.sampleQueue(h.sched.QueueLength())
	h.m.Poll(snap)
}

func (h tracedHooks) ProcessorsAvailable() {
	h.t.sampleQueue(h.sched.QueueLength())
	h.m.ProcessorsAvailable()
}

func (h tracedHooks) PlacementBlocked(j *koala.Job) bool {
	h.t.cur.blocked++
	h.t.sampleQueue(h.sched.QueueLength())
	return h.m.PlacementBlocked(j)
}

func (h tracedHooks) Reserved(i int) int {
	h.t.cur.reserved++
	return h.m.Reserved(i)
}

// AppGrowRequest implements runner.AppGrowHandler by forwarding to the
// manager, as the scheduler would without the decorator.
func (h tracedHooks) AppGrowRequest(site string, amount int) int {
	return h.m.AppGrowRequest(site, amount)
}

// tracedPoint is a point's seed-independent setup for hand-built
// replications: what Prepare computes, rebuilt from public entry points.
type tracedPoint struct {
	cfg     experiment.Config
	wl      *workload.PreparedSpec
	pol     core.Policy
	apr     core.Approach
	place   koala.PlacementPolicy
	gramCfg gram.Config
	idx     *koala.SharedIndex
	span    float64
}

func newTracedPoint(p *experiment.Prepared) (*tracedPoint, error) {
	cfg := p.Config()
	pol, ok := core.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", cfg.Policy)
	}
	apr, ok := core.ApproachByName(cfg.Approach)
	if !ok {
		return nil, fmt.Errorf("unknown approach %q", cfg.Approach)
	}
	place, err := koala.PolicyByName(cfg.Placement)
	if err != nil {
		return nil, err
	}
	wl, err := workload.PrepareSpec(cfg.Workload)
	if err != nil {
		return nil, err
	}
	gramCfg := gram.DefaultConfig()
	if cfg.GramOverride != nil {
		gramCfg = *cfg.GramOverride
	}
	var names []string
	for _, c := range cfg.Grid().Clusters() {
		names = append(names, c.Name())
	}
	return &tracedPoint{
		cfg: cfg, wl: wl, pol: pol, apr: apr, place: place, gramCfg: gramCfg,
		idx:  koala.PrepareIndex(names),
		span: float64(cfg.Workload.Jobs) * cfg.Workload.InterArrival,
	}, nil
}

// runOnce is Prepared.RunOnce with every layer decorated.
func (tp *tracedPoint) runOnce(seed uint64, t *tracer) (*experiment.RunResult, repCounts, error) {
	cfg := tp.cfg
	t.cur = repCounts{}
	t.begin("replication", fmt.Sprintf("%s#%d", cfg.Name, seed))
	defer t.end()
	t.enter(lRep)
	defer t.exit()

	t.begin("workload.generate", "")
	t.enter(lGenerate)
	wl := tp.wl.Generate(seed)
	t.exit()
	t.end()

	t.begin("core.new_system", "")
	t.enter(lNewSystem)
	st := obs.NewSimStats()
	sys := core.NewSystem(core.SystemConfig{
		Grid: cfg.Grid(),
		Gram: tp.gramCfg,
		Scheduler: koala.Config{
			Policy:        tracedPlacement{tp.place, t},
			PollInterval:  cfg.PollInterval,
			MRunnerConfig: runner.DefaultMRunnerConfig(),
			Index:         tp.idx,
		},
		Manager: core.ManagerConfig{
			Policy:        tracedPolicy{tp.pol, t},
			Approach:      tracedApproach{tp.apr, t},
			GrowthReserve: cfg.GrowthReserve,
			Stats:         st,
		},
		DisableManager: cfg.DisableMalleability,
	})
	if sys.Manager != nil {
		sys.Scheduler.SetHooks(tracedHooks{m: sys.Manager, sched: sys.Scheduler, t: t})
	}
	sys.Engine.SetStats(st)
	t.exit()
	t.end()

	col := metrics.NewCollector(sys.Engine, sys.Scheduler, sys.Grid, cfg.SamplePeriod)
	sample := cfg.SamplePeriod
	if sample <= 0 {
		sample = 10
	}
	col.Reserve(cfg.Workload.Jobs, int((tp.span+2000)/sample)+2)
	if cfg.Background != nil {
		bgSpec := *cfg.Background
		bgSpec.Seed = seed ^ 0xbadc0ffee
		bg, err := workload.StartBackground(sys.Engine, sys.Grid, bgSpec)
		if err != nil {
			return nil, repCounts{}, err
		}
		sys.Engine.At(tp.span+2000, bg.Stop)
	}
	sub := workload.Submit(sys.Engine, wl, func(js koala.JobSpec) error {
		_, err := sys.Scheduler.Submit(js)
		return err
	})
	t.begin("simulate", "")
	err := sys.RunUntilDone(cfg.Horizon)
	t.end()
	if err != nil {
		return nil, repCounts{}, fmt.Errorf("%s (seed %d): %w", cfg.Name, seed, err)
	}
	col.Stop()
	if len(sub.Errs()) > 0 {
		return nil, repCounts{}, fmt.Errorf("%s: %d submission errors, first: %v", cfg.Name, len(sub.Errs()), sub.Errs()[0])
	}
	res := &experiment.RunResult{
		Seed:        seed,
		Records:     col.Records(),
		Rejected:    len(col.Rejected()),
		Utilization: col.Utilization(),
	}
	for _, r := range res.Records {
		res.Makespan = max(res.Makespan, r.EndTime)
	}
	c := t.cur
	if sys.Manager != nil {
		res.GrowOps = sys.Manager.GrowOps().Series()
		res.ShrinkOps = sys.Manager.ShrinkOps().Series()
		res.TotalOps = sys.Manager.GrowOps().Total() + sys.Manager.ShrinkOps().Total()
		c.grow = int64(sys.Manager.GrowOps().Total())
		c.shrink = int64(sys.Manager.ShrinkOps().Total())
		c.declined = int64(sys.Manager.Declined())
	} else {
		res.GrowOps = stats.NewTimeSeries()
		res.ShrinkOps = stats.NewTimeSeries()
	}
	snap := st.Snapshot()
	c.fired, c.canceled, c.pendingPeak = snap.EventsFired, snap.EventsCanceled, snap.PendingPeak
	for _, site := range sys.Sites {
		s, a, r := site.Gram().Stats()
		c.submitted += int64(s)
		c.activated += int64(a)
		c.release += int64(r)
	}
	return res, c, nil
}

// tracedRounds runs every point's replications through runOnce, rounds
// times. It checks each point's digest against want, and that every
// replication's counters repeat exactly from round to round.
func tracedRounds(tps []*tracedPoint, rounds int, t *tracer, rep *report, want map[string]string) (total repCounts, reps int, roundSec []float64, err error) {
	first := map[string]repCounts{}
	for r := 0; r < rounds; r++ {
		start := time.Now()
		results := make([]pointResult, len(tps))
		for i, tp := range tps {
			t.begin("point", tp.cfg.Name)
			pr := pointResult{runs: make([]*experiment.RunResult, tp.cfg.Runs), agg: metrics.NewAggregate()}
			for k := range pr.runs {
				seed := tp.cfg.Seed + uint64(k)
				res, c, err := tp.runOnce(seed, t)
				if err != nil {
					return total, reps, nil, err
				}
				pr.runs[k] = res
				pr.agg.ObserveAll(res.Records)
				key := fmt.Sprintf("%s#%d", tp.cfg.Name, seed)
				if prev, ok := first[key]; !ok {
					first[key] = c
				} else if prev != c {
					rep.attempted++
					rep.problem("%s: work counters differ between rounds: %+v vs %+v", key, prev, c)
				}
				total.add(c)
				reps++
			}
			t.end()
			results[i] = pr
		}
		roundSec = append(roundSec, time.Since(start).Seconds())
		for i, tp := range tps {
			checkDigest(rep, want, tp.cfg.Name, results[i].digest())
		}
	}
	return total, reps, roundSec, nil
}

// setLayerMetrics reports the traced counters and self times per
// replication.
func setLayerMetrics(rep *report, c repCounts, reps int, t *tracer) {
	n := float64(reps)
	per := func(v int64) float64 { return float64(v) / n }
	perMs := func(l layer) float64 { return ms(t.self[l]) / n }
	rep.set("sim.events_fired_per_rep", per(c.fired))
	rep.set("sim.events_canceled_per_rep", per(c.canceled))
	rep.set("sim.pending_peak", float64(c.pendingPeak))
	rep.set("koala.place_calls_per_rep", per(c.placeCalls))
	okRatio := 0.0
	if c.placeCalls > 0 {
		okRatio = float64(c.placeOK) / float64(c.placeCalls)
	}
	rep.set("koala.place_ok_ratio", okRatio)
	rep.set("koala.place_ms_per_rep", perMs(lPlace))
	rep.set("koala.blocked_calls_per_rep", per(c.blocked))
	rep.set("koala.reserved_calls_per_rep", per(c.reserved))
	rep.set("koala.queue_len_peak", float64(c.queuePeak))
	rep.set("core.poll_calls_per_rep", per(c.polls))
	rep.set("core.poll_ms_per_rep", perMs(lPoll))
	rep.set("core.avail_ms_per_rep", perMs(lAvail))
	rep.set("core.blocked_ms_per_rep", perMs(lBlocked))
	rep.set("core.policy_ms_per_rep", perMs(lPolicy))
	rep.set("core.grow_msgs_per_rep", per(c.grow))
	rep.set("core.shrink_msgs_per_rep", per(c.shrink))
	rep.set("core.declined_per_rep", per(c.declined))
	rep.set("gram.submitted_per_rep", per(c.submitted))
	rep.set("gram.activated_per_rep", per(c.activated))
	rep.set("gram.released_per_rep", per(c.release))
	rep.set("workload.generate_ms", perMs(lGenerate))
	rep.set("experiment.rep_self_ms", perMs(lRep))
	// The traced layers' self times add up to the replication's wall time;
	// print the split for reading, not as metrics.
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	fmt.Printf("traced time per replication %.3f ms:", ms(sum)/n)
	names := [nLayers]string{"rep_self", "generate", "new_system", "poll", "avail", "blocked", "place", "policy"}
	for l := lRep; l < nLayers; l++ {
		fmt.Printf(" %s %.1f%%", names[l], 100*float64(t.self[l])/float64(sum))
	}
	fmt.Println()
}

// traceReplications reports the simulation layers of prepared points:
// plain rounds for the host-time baselines, then decorated rounds for the
// per-layer split. The plain rounds' digests are checked against want,
// or, when want is nil, become what the decorated rounds must match.
func traceReplications(preps []*experiment.Prepared, plain, decorated int, rep *report, want map[string]string) (simRounds, *tracer, error) {
	m, got, err := measureRounds(preps, plain, rep, want)
	if err != nil {
		return m, nil, err
	}
	if want == nil {
		want = got
	}
	tps := make([]*tracedPoint, len(preps))
	for i, p := range preps {
		if tps[i], err = newTracedPoint(p); err != nil {
			return m, nil, err
		}
	}
	t := newTracer()
	total, reps, roundSec, err := tracedRounds(tps, decorated, t, rep, want)
	if err != nil {
		return m, nil, err
	}
	setLayerMetrics(rep, total, reps, t)
	untraced := m.repsPerSec()
	traced := float64(reps) / float64(len(roundSec)) / median(roundSec)
	n := float64(m.reps)
	rep.set("sim.ns_per_event", 1e9/untraced/(float64(total.fired)/float64(reps)))
	rep.set("experiment.aggregate_ms_per_point", median(m.aggregateMs))
	rep.set("runtime.gc_cycles_per_rep", float64(m.gcCycles)/n)
	rep.set("runtime.gc_pause_ms_per_rep", ms(m.gcPause)/n)
	rep.set("bench.trace_overhead_frac", 1-traced/untraced)
	return m, t, nil
}

// traceSim is the traced run of a sim workload: the simulation layers,
// then the workload's points served once through koalad for the server
// layers.
func traceSim(w simWorkload, preps []*experiment.Prepared, o opts, rep *report, prepare, wlPrepare float64) error {
	rounds := w.rounds(o.seconds)
	m, t, err := traceReplications(preps, max(2, rounds/4), max(2, rounds/8), rep, storedDigests[w.name])
	if err != nil {
		return err
	}
	rep.set("workload.prepare_ms", wlPrepare)
	rep.set("experiment.prepare_ms", prepare)
	rep.set("bench.gen_late_ms_p99", percentile(m.gapMs, 99))
	if err := probeServer(preps, rep); err != nil {
		return err
	}
	rep.set("bench.failed_frac", failedFrac(rep))
	return t.writeSpans(o.spans)
}
