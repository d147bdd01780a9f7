package koala

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/invariant"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Hooks is how the malleability manager (package core, §V) plugs into the
// scheduler. A nil hook set gives plain KOALA behaviour: the queue is
// scanned whenever processors become available.
type Hooks interface {
	// Poll fires on every scheduler polling tick with a fresh KIS snapshot;
	// this is where the PRA/PWA approaches run their management round.
	Poll(snap Snapshot)
	// ProcessorsAvailable fires when a job finishes and its processors
	// return. With PRA, running malleable jobs get precedence over the
	// queue; the hook is responsible for eventually calling ScanQueue.
	ProcessorsAvailable()
	// PlacementBlocked fires when the queue head cannot be placed. With
	// PWA it shrinks running malleable jobs to make room; it returns true
	// when room is being made (so the scheduler stops scanning this round).
	PlacementBlocked(j *Job) bool
	// Reserved reports processors of the site with the given dense index
	// (the scheduler's Sites() order) that the malleability manager has
	// granted to growing jobs but that are not yet held (stub submissions
	// in flight). The processor claimer subtracts them from every placement
	// view so that newly arriving jobs cannot double-book processors
	// already promised to running applications. It must depend only on
	// scheduler state that Scheduler.Version stamps: the placement view
	// is rebuilt only when the stamp moves.
	Reserved(siteIndex int) int
}

// Config holds the scheduler's tunables.
type Config struct {
	// Policy is the placement policy; all paper experiments use Worst-Fit.
	Policy PlacementPolicy
	// MaxPlacementTries rejects a job after this many failed placement
	// attempts (§IV-A). Zero means unlimited.
	MaxPlacementTries int
	// PollInterval is the period at which the scheduler polls the KIS and
	// triggers job management (§V-B).
	PollInterval float64
	// MRunnerConfig configures the malleable runners the scheduler spawns.
	MRunnerConfig runner.MRunnerConfig
	// MoldableSizing picks the start size for moldable components given
	// the profile bounds and the idle processors of the chosen site; nil
	// uses the requested size.
	MoldableSizing func(min, max, idle int) int
	// Index, when non-nil, is a shared immutable site index table built
	// once per sweep point (PrepareIndex) and reused read-only by every
	// replication's KIS, instead of each KIS rebuilding the name↔index
	// map from scratch. It must match the sites handed to NewScheduler;
	// a mismatch falls back to a freshly built index.
	Index *SharedIndex
}

// DefaultConfig mirrors the experimental setup: Worst-Fit placement and a
// short polling period so background load is discovered promptly.
func DefaultConfig() Config {
	return Config{
		Policy:            WorstFit{},
		MaxPlacementTries: 0,
		PollInterval:      15,
		MRunnerConfig:     runner.DefaultMRunnerConfig(),
	}
}

// Scheduler is the centralised KOALA scheduler: the co-allocator (CO) that
// decides placements, and the processor claimer (PC) that turns placements
// into GRAM submissions through the runners (§IV-A).
type Scheduler struct {
	engine *sim.Engine
	sites  []*Site
	kis    *KIS
	cfg    Config

	queue []*Job
	jobs  []*Job

	// scanR and scanW are ScanQueue's read and write cursors. Jobs before
	// scanW stay queued, the placed and rejected jobs in [scanW, scanR)
	// are compacted out when the scan ends, and jobs from scanR on are
	// still to be tried. Both are zero outside a scan.
	scanR, scanW int

	// pending counts processors (by site index) claimed for placed jobs
	// whose GRAM submissions are still in flight. The processor claimer
	// subtracts them from every placement view so the submission latency
	// cannot cause double-booking (§IV-A's claiming policy, adapted to
	// immediate claiming).
	pending []int

	// running holds, per site index, the running malleable jobs sorted by
	// (start time, submission order) — the order both malleability policies
	// consume (§V-C). It is maintained incrementally on job start/finish so
	// RunningMalleableJobs is O(jobs-on-site) instead of rescanning every
	// job ever submitted.
	running [][]*Job

	// inflight and shrinkable are running totals over running[i]:
	// Σ max(0, planned − held) and Σ max(0, planned − min). Each job keeps
	// its own contribution; insertRunning adds it, removeRunning subtracts
	// it and planChanged applies the difference, so the malleability
	// manager reads both sums in O(1) (see docs/determinism.md).
	inflight   []int
	shrinkable []int

	// scanSnap is the KIS snapshot taken once at the start of ScanQueue.
	// Cluster idle counts only change inside engine events, never during
	// a scan, so every placement view of the scan derives from it.
	scanSnap Snapshot

	// changes is bumped once by every operation that writes pending,
	// inflight or shrinkable: claim, jobStarted, removeRunning and
	// planChanged. With the KIS refresh count it forms Version.
	changes uint64

	// viewBuf backs placementView's claims-adjusted snapshot, and
	// viewStamp is the Version it was built at. It is valid only for the
	// placement attempt it was returned to.
	viewBuf   []ProcessorInfo
	viewStamp uint64

	// claimsPool recycles per-job claim vectors: claims live only from
	// Placing to Running, so a small free list serves the whole run.
	claimsPool [][]int

	// jobArena batch-allocates Job structs (handles stay valid for the
	// scheduler's lifetime; see gram.Service.arena for the pattern).
	jobArena []Job

	hooks  Hooks
	ticker *sim.Ticker

	// OnJobStarted/OnJobFinished/OnJobRejected feed the metrics layer.
	OnJobStarted  func(*Job)
	OnJobFinished func(*Job)
	OnJobRejected func(*Job)

	scanning bool
}

// NewScheduler assembles a scheduler over the given sites.
func NewScheduler(engine *sim.Engine, sites []*Site, cfg Config) *Scheduler {
	if cfg.Policy == nil {
		cfg.Policy = WorstFit{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5
	}
	s := &Scheduler{
		engine:  engine,
		sites:   sites,
		kis:     newKIS(engine, sites, cfg.Index),
		cfg:     cfg,
		pending: make([]int, len(sites)),
		running: make([][]*Job, len(sites)),
		viewBuf: make([]ProcessorInfo, len(sites)),

		inflight:   make([]int, len(sites)),
		shrinkable: make([]int, len(sites)),
	}
	s.ticker = sim.NewTicker(engine, cfg.PollInterval, s.pollTick)
	return s
}

// indexOf returns the dense index of a site of this scheduler: its
// position in Sites(), which keys every per-site slice.
func (s *Scheduler) indexOf(site *Site) int {
	for i, x := range s.sites {
		if x == site {
			return i
		}
	}
	panic(fmt.Sprintf("koala: site %s is not scheduled here", site.Name()))
}

// SiteIndex returns the dense index of the named site in Sites() order.
func (s *Scheduler) SiteIndex(name string) (int, bool) {
	i, ok := s.kis.idx.byName[name]
	return i, ok
}

// KIS returns the scheduler's information service.
func (s *Scheduler) KIS() *KIS { return s.kis }

// Sites returns the execution sites.
func (s *Scheduler) Sites() []*Site { return s.sites }

// Config returns the scheduler configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetHooks installs the malleability manager's hooks.
func (s *Scheduler) SetHooks(h Hooks) { s.hooks = h }

// Stop halts the polling ticker (end of experiment).
func (s *Scheduler) Stop() { s.ticker.Stop() }

// Jobs returns every job ever submitted, in submission order.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// QueueLength returns the number of jobs waiting for placement.
func (s *Scheduler) QueueLength() int { return len(s.queue) - (s.scanR - s.scanW) }

// QueuedJobs returns the placement queue, head first. The slice must not be
// modified.
func (s *Scheduler) QueuedJobs() []*Job {
	if s.scanR == s.scanW {
		return s.queue
	}
	// Called from a hook mid-scan: the placed and rejected jobs are not
	// compacted out yet, so return a copy without them.
	return append(s.queue[:s.scanW:s.scanW], s.queue[s.scanR:]...)
}

// Version returns a monotone stamp of the scheduler state that placement
// views and the malleability manager's scan memos read: it moves on every
// write of the pending claims, the in-flight growth or shrinkable totals,
// and on every KIS refresh. Two reads at the same stamp see the same
// snapshot, claims and totals (see docs/determinism.md). It is at least 1,
// because the KIS refreshes once at construction.
func (s *Scheduler) Version() uint64 { return s.changes + s.kis.refreshes }

// RunningMalleableJobs returns the malleable jobs currently running on the
// named site, sorted by increasing start time with ties in submission order
// (the order both malleability policies consume, §V-C). The returned slice
// is the scheduler's live index: callers must not modify it, and it is
// valid only until the next job start or finish.
func (s *Scheduler) RunningMalleableJobs(site string) []*Job {
	i, ok := s.kis.idx.byName[site]
	if !ok {
		return nil
	}
	return s.running[i]
}

// RunningMalleableJobsAt is RunningMalleableJobs by dense site index.
func (s *Scheduler) RunningMalleableJobsAt(i int) []*Job { return s.running[i] }

// insertRunning adds a just-started malleable job to its site's index,
// keeping the (start time, submission order) sort. Start times are assigned
// from the monotone simulation clock, so the job belongs at the tail except
// for same-instant ties, where submission order decides (the order the
// previous full stable sort produced).
func (s *Scheduler) insertRunning(i int, j *Job) {
	lst := append(s.running[i], j)
	k := len(lst) - 1
	for k > 0 && (lst[k-1].startTime > j.startTime ||
		(lst[k-1].startTime == j.startTime && lst[k-1].seq > j.seq)) {
		lst[k] = lst[k-1]
		k--
	}
	lst[k] = j
	s.running[i] = lst
	j.runSite = int32(i + 1)
	j.inflight, j.shrinkable = j.planTerms()
	s.inflight[i] += int(j.inflight)
	s.shrinkable[i] += int(j.shrinkable)
}

// removeRunning drops a finished malleable job from its site's index.
func (s *Scheduler) removeRunning(i int, j *Job) {
	lst := s.running[i]
	for k, q := range lst {
		if q == j {
			copy(lst[k:], lst[k+1:])
			lst[len(lst)-1] = nil
			s.running[i] = lst[:len(lst)-1]
			s.inflight[i] -= int(j.inflight)
			s.shrinkable[i] -= int(j.shrinkable)
			s.changes++
			j.runSite, j.inflight, j.shrinkable = 0, 0, 0
			return
		}
	}
}

// planChanged applies the difference of an indexed job's contributions
// after its runner changed planned or held processors.
//
//koalalint:hotpath
func (s *Scheduler) planChanged(j *Job) {
	i := j.runSite - 1
	inflight, shrinkable := j.planTerms()
	s.inflight[i] += int(inflight - j.inflight)
	s.shrinkable[i] += int(shrinkable - j.shrinkable)
	s.changes++
	j.inflight, j.shrinkable = inflight, shrinkable
}

// InflightGrowthAt returns the processors of site i granted to its running
// malleable jobs but not yet held: Σ max(0, planned − held). O(1).
func (s *Scheduler) InflightGrowthAt(i int) int {
	if invariant.Checking {
		s.checkTotals(i)
	}
	return s.inflight[i]
}

// ShrinkableAt returns how many processors the running malleable jobs of
// site i could still give back: Σ max(0, planned − min). O(1).
func (s *Scheduler) ShrinkableAt(i int) int {
	if invariant.Checking {
		s.checkTotals(i)
	}
	return s.shrinkable[i]
}

// pollTick is the periodic heartbeat: refresh the KIS (discovering
// background load) and hand control to the malleability manager; without a
// manager, just rescan the queue.
func (s *Scheduler) pollTick() {
	snap := s.kis.Refresh()
	if s.hooks != nil {
		s.hooks.Poll(snap)
		return
	}
	s.ScanQueue()
}

// Submit enters a job into the system and immediately tries to place it.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("job-%d", len(s.jobs))
	}
	if len(s.jobArena) == 0 {
		s.jobArena = make([]Job, 64)
	}
	j := &s.jobArena[0]
	s.jobArena = s.jobArena[1:]
	j.Spec, j.state, j.submitTime, j.seq, j.sched = spec, Waiting, s.engine.Now(), len(s.jobs), s
	s.jobs = append(s.jobs, j)
	// A fresh job has made one try, which no threshold rejects: only
	// ScanQueue's retries can exceed MaxPlacementTries.
	if !s.tryPlace(j) {
		s.queue = append(s.queue, j)
	}
	return j, nil
}

// rejectIfOverThreshold applies the placement-try threshold of §IV-A; it
// reports whether the job was rejected. The caller drops it from the queue.
func (s *Scheduler) rejectIfOverThreshold(j *Job) bool {
	if s.cfg.MaxPlacementTries <= 0 || j.tries <= s.cfg.MaxPlacementTries {
		return false
	}
	j.state = Rejected
	if s.OnJobRejected != nil {
		s.OnJobRejected(j)
	}
	return true
}

// ScanQueue walks the placement queue head to tail, placing every job that
// fits (§IV-A). When a job cannot be placed and the malleability hooks
// report that room is being made for it (PWA mandatory shrinks), scanning
// stops to preserve the queue order. Placed and rejected jobs leave the
// queue in one compaction when the scan ends.
func (s *Scheduler) ScanQueue() {
	if s.scanning || len(s.queue) == 0 {
		return
	}
	s.scanning = true
	s.scanSnap = s.kis.Refresh()
	for s.scanR < len(s.queue) {
		j := s.queue[s.scanR]
		placed := s.tryPlace(j)
		// Advance the read cursor before the rejection callback, so
		// QueueLength no longer counts a placed or rejected job.
		s.scanR++
		if placed || s.rejectIfOverThreshold(j) {
			continue
		}
		s.queue[s.scanW] = j
		s.scanW++
		if s.hooks != nil && s.hooks.PlacementBlocked(j) {
			break
		}
	}
	n := s.scanW + copy(s.queue[s.scanW:], s.queue[s.scanR:])
	clear(s.queue[n:])
	s.queue = s.queue[:n]
	s.scanR, s.scanW = 0, 0
	s.scanning = false
}

// PendingClaims returns the processors claimed on the named site for jobs
// whose GRAM submissions are still in flight.
func (s *Scheduler) PendingClaims(site string) int {
	i, ok := s.kis.idx.byName[site]
	if !ok {
		return 0
	}
	return s.pending[i]
}

// PendingClaimsAt is PendingClaims by dense site index.
func (s *Scheduler) PendingClaimsAt(i int) int { return s.pending[i] }

// placementView returns the current snapshot with in-flight claims and the
// malleability manager's in-flight growth reservations subtracted. Inside
// ScanQueue it reuses the scan's snapshot; outside (a submission) it
// refreshes the KIS. Either way Version moves, so a built view is reused
// only within one scan, and there only until Version moves again: the
// snapshot, the claims and the reservations are all stamped by it. Most
// tries of a contended scan reuse the previous view. The returned
// snapshot is backed by a reusable scratch buffer: it is valid only for
// the placement attempt it was returned to.
//
//koalalint:hotpath
func (s *Scheduler) placementView() Snapshot {
	snap := s.scanSnap
	if !s.scanning {
		snap = s.kis.Refresh()
	} else if invariant.Checking {
		s.checkScanSnap()
	}
	if v := s.Version(); v != s.viewStamp {
		for i := range s.sites {
			s.viewBuf[i] = s.viewAt(snap, i)
		}
		s.viewStamp = v
	} else if invariant.Checking {
		s.checkView(snap)
	}
	view := snap
	view.procs = s.viewBuf
	return view
}

// viewAt is site i's entry of the placement view built over snap.
func (s *Scheduler) viewAt(snap Snapshot, i int) ProcessorInfo {
	info := snap.At(i)
	info.Idle -= s.pending[i]
	if s.hooks != nil {
		info.Idle -= s.hooks.Reserved(i)
	}
	if info.Idle < 0 {
		info.Idle = 0
	}
	return info
}

// tryPlace runs the placement policy against a claims-adjusted snapshot
// and, on success, claims the processors by starting the job's runners. It
// counts one placement try either way.
func (s *Scheduler) tryPlace(j *Job) bool {
	if j.state != Waiting {
		return false
	}
	j.tries++
	placements, ok := s.cfg.Policy.Place(&j.Spec, s.placementView(), s.kis, s.sites)
	if !ok {
		return false
	}
	s.claim(j, placements)
	return true
}

// getClaims hands out a zeroed per-site claim vector from the pool.
func (s *Scheduler) getClaims() []int {
	if n := len(s.claimsPool); n > 0 {
		c := s.claimsPool[n-1]
		s.claimsPool = s.claimsPool[:n-1]
		for i := range c {
			c[i] = 0
		}
		return c
	}
	return make([]int, len(s.sites))
}

func (s *Scheduler) putClaims(c []int) {
	s.claimsPool = append(s.claimsPool, c)
}

// claim is the processor claimer (PC): it turns placements into runners.
// Local resource managers on DAS-3 do not support reservations, so claiming
// is immediate GRAM submission; the postponed-claiming policy of [20], [21]
// degenerates to claiming at placement time in this model.
func (s *Scheduler) claim(j *Job, placements []ComponentPlacement) {
	j.state = Placing
	j.placeTime = s.engine.Now()
	j.claims = s.getClaims()
	j.sites = j.sitesBuf[:0]
	if p := &placements[0]; len(placements) == 1 && !j.Malleable() {
		// Moldable sizing may start the job at another size than the
		// placed one: claim the size the runner starts with.
		if prof := j.Spec.Components[p.Component].Profile; prof.Class == app.Moldable && s.cfg.MoldableSizing != nil {
			idle := s.kis.Last().IdleAt(s.indexOf(p.Site))
			p.Size = clamp(s.cfg.MoldableSizing(prof.Min, prof.Max, idle+p.Size), prof.Min, prof.Max)
		}
	}
	for _, p := range placements {
		j.sites = append(j.sites, p.Site)
		si := s.indexOf(p.Site)
		j.claims[si] += p.Size
		s.pending[si] += p.Size
	}
	s.changes++
	cb := runner.Callbacks{Lifecycle: j}
	if j.Malleable() {
		comp := j.Spec.Components[0]
		mr, err := runner.NewMRunner(s.engine, placements[0].Site.Gram(), comp.Profile, placements[0].Size, s.cfg.MRunnerConfig, cb)
		if err != nil {
			panic(fmt.Sprintf("koala: claim failed for %s: %v", j.Spec.ID, err))
		}
		j.mrunner = mr
		// Route application-initiated grow requests (§II-C) to the
		// malleability manager when it supports them.
		if h, ok := s.hooks.(runner.AppGrowHandler); ok {
			mr.SetAppGrowHandler(h)
		}
		if err := mr.Start(); err != nil {
			panic(fmt.Sprintf("koala: start failed for %s: %v", j.Spec.ID, err))
		}
		return
	}
	if len(placements) == 1 {
		comp := j.Spec.Components[placements[0].Component]
		rr, err := runner.NewRigidRunner(s.engine, placements[0].Site.Gram(), comp.Profile, placements[0].Size, cb)
		if err != nil {
			panic(fmt.Sprintf("koala: claim failed for %s: %v", j.Spec.ID, err))
		}
		j.rigidRunners = []*runner.RigidRunner{rr}
		if err := rr.Start(); err != nil {
			panic(fmt.Sprintf("koala: start failed for %s: %v", j.Spec.ID, err))
		}
		return
	}
	// Multi-component (co-allocated) job: one spanning runner.
	profile := j.Spec.Components[placements[0].Component].Profile
	comps := make([]runner.CoComponent, 0, len(placements))
	for _, p := range placements {
		comps = append(comps, runner.CoComponent{Svc: p.Site.Gram(), Size: p.Size})
	}
	cr, err := runner.NewCoRunner(s.engine, profile, comps, cb)
	if err != nil {
		panic(fmt.Sprintf("koala: claim failed for %s: %v", j.Spec.ID, err))
	}
	j.coRunner = cr
	if err := cr.Start(); err != nil {
		panic(fmt.Sprintf("koala: start failed for %s: %v", j.Spec.ID, err))
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (s *Scheduler) jobStarted(j *Job) {
	j.state = Running
	j.startTime = s.engine.Now()
	// The job's processors are now held at the clusters; drop the claims.
	for si, n := range j.claims {
		if n != 0 {
			s.pending[si] -= n
		}
	}
	s.putClaims(j.claims)
	j.claims = nil
	if j.Malleable() {
		if site := j.Site(); site != nil {
			s.insertRunning(s.indexOf(site), j)
		}
	}
	// One Version bump covers the claims dropped and the totals added.
	s.changes++
	if s.OnJobStarted != nil {
		s.OnJobStarted(j)
	}
}

func (s *Scheduler) jobFinished(j *Job) {
	j.state = Finished
	j.endTime = s.engine.Now()
	if j.Malleable() {
		if site := j.Site(); site != nil {
			s.removeRunning(s.indexOf(site), j)
		}
	}
	if s.OnJobFinished != nil {
		s.OnJobFinished(j)
	}
	// Processors just came back: give the malleability manager precedence,
	// or rescan the queue directly in plain-KOALA mode. Deferred through
	// the engine so the GRAM releases settle first; the scheduler is its
	// own pre-bound handler so the per-job-finish event allocates nothing.
	s.engine.ImmediatelyOp(s, opProcessorsReturned)
}

// opProcessorsReturned is the Scheduler's only handler op: a finished
// job's processors settled back at GRAM.
const opProcessorsReturned = 0

// OnEvent implements sim.Handler for the deferred processors-returned
// notification scheduled by jobFinished.
func (s *Scheduler) OnEvent(int) {
	if s.hooks != nil {
		s.hooks.ProcessorsAvailable()
	} else {
		s.ScanQueue()
	}
}
