package core

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/koala"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ManagerConfig tunes the malleability manager.
type ManagerConfig struct {
	// Policy distributes grow/shrink amounts over jobs (FPSMA or EGS).
	Policy Policy
	// Approach decides when management rounds run (PRA or PWA).
	Approach Approach
	// GrowthReserve keeps this many processors per cluster off-limits to
	// growth, "in order to leave always a minimal number of available
	// processors to local users" (§V-B). Initial placement is not affected.
	GrowthReserve int
	// Stats, when non-nil, passively collects the manager's grow/shrink
	// decisions (labeled by the run's policy at the consumer). It never
	// influences decisions and records only simulated time.
	Stats *obs.SimStats
}

// DefaultManagerConfig is FPSMA under PRA with no reserve.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{Policy: FPSMA{}, Approach: PRA{}, GrowthReserve: 0}
}

// Manager is the malleability manager added to KOALA's scheduler (§V-A): it
// is responsible for triggering changes of the resource allocations of
// malleable jobs. It implements koala.Hooks and is driven by the scheduler's
// periodic KIS polling (so background load is accounted for dynamically) and
// by availability/blocked events.
type Manager struct {
	engine *sim.Engine
	sched  *koala.Scheduler
	cfg    ManagerConfig

	growMsgs      *stats.Counter // grow messages over time (Fig. 7f)
	shrinkMsgs    *stats.Counter // shrink messages over time (Fig. 8f)
	declined      uint64
	blockedEvents uint64
	appGrowMsgs   uint64

	// prevAvail remembers the last observed growth headroom per site (by
	// dense site index). Growth rounds run when processors *become
	// available* (§V-B) — an edge trigger, not a level trigger — so a site
	// whose availability is unchanged since the previous poll is left
	// alone. A site not yet observed starts at 0, so its first round
	// offers all of its headroom.
	prevAvail []int

	// Scan memos keyed on the scheduler's Version (see docs/determinism.md).
	// grownAt is the stamp at which the last growAll round ended (0: none;
	// a Version is at least 1): a round at that stamp grows nothing.
	// capStamp is the stamp of maxIdle, the largest growth-free headroom
	// of any site, and maxCap, the largest headroom once every malleable
	// job shrinks to its minimum. Both memos live as long as the Manager,
	// which is one replication.
	grownAt  uint64
	capStamp uint64
	maxIdle  int
	maxCap   int
}

// NewManager attaches a malleability manager to the scheduler.
func NewManager(engine *sim.Engine, sched *koala.Scheduler, cfg ManagerConfig) *Manager {
	if cfg.Policy == nil {
		cfg.Policy = FPSMA{}
	}
	if cfg.Approach == nil {
		cfg.Approach = PRA{}
	}
	if cfg.GrowthReserve < 0 {
		panic(fmt.Sprintf("core: negative growth reserve %d", cfg.GrowthReserve))
	}
	m := &Manager{
		engine:     engine,
		sched:      sched,
		cfg:        cfg,
		growMsgs:   stats.NewCounter(),
		shrinkMsgs: stats.NewCounter(),
		prevAvail:  make([]int, len(sched.Sites())),
	}
	sched.SetHooks(m)
	return m
}

// Policy returns the configured malleability management policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// Approach returns the configured job management approach.
func (m *Manager) Approach() Approach { return m.cfg.Approach }

// GrowOps returns the cumulative count of grow operations (Fig. 7f).
func (m *Manager) GrowOps() *stats.Counter { return m.growMsgs }

// ShrinkOps returns the cumulative count of shrink operations.
func (m *Manager) ShrinkOps() *stats.Counter { return m.shrinkMsgs }

// Declined returns the number of management rounds that produced no change.
func (m *Manager) Declined() uint64 { return m.declined }

// Poll implements koala.Hooks: one management round per scheduler poll.
func (m *Manager) Poll(snap koala.Snapshot) {
	m.cfg.Approach.OnPoll(m, snap)
}

// ProcessorsAvailable implements koala.Hooks.
func (m *Manager) ProcessorsAvailable() {
	m.cfg.Approach.OnProcessorsAvailable(m)
}

// PlacementBlocked implements koala.Hooks.
func (m *Manager) PlacementBlocked(j *koala.Job) bool {
	m.blockedEvents++
	return m.cfg.Approach.OnPlacementBlocked(m, j)
}

// BlockedEvents returns how many head-of-queue placement failures were
// reported to the manager.
func (m *Manager) BlockedEvents() uint64 { return m.blockedEvents }

// Reserved implements koala.Hooks: processors granted to growing jobs whose
// stub submissions are still in flight. The scheduler subtracts them from
// every placement view.
func (m *Manager) Reserved(siteIndex int) int { return m.sched.InflightGrowthAt(siteIndex) }

// availableForGrowth computes how many processors of site i the manager may
// hand to malleable jobs right now: the snapshot's idle count minus claims
// still in flight, minus growth already granted but not yet held, minus the
// local-user reserve.
func (m *Manager) availableForGrowth(snap koala.Snapshot, i int) int {
	return snap.IdleAt(i) - m.sched.PendingClaimsAt(i) -
		m.sched.InflightGrowthAt(i) - m.cfg.GrowthReserve
}

// totalMsgs sums the grow and shrink messages received so far by the
// malleable runners of the given jobs.
func totalMsgs(jobs []*koala.Job) (grow, shrink uint64) {
	for _, j := range jobs {
		if mr := j.MRunner(); mr != nil {
			g, s := mr.Stats()
			grow += g
			shrink += s
		}
	}
	return grow, shrink
}

// growSiteAt runs one grow round on the site with dense index i, with the
// given number of available processors as the grow value, counting the grow
// messages the policy sent (the paper's Fig. 7f metric). Jobs at their
// maximum still receive offers, as in the Fig. 4/5 pseudo-code — they
// simply decline.
func (m *Manager) growSiteAt(i, avail int) int {
	jobs := m.sched.RunningMalleableJobsAt(i)
	if len(jobs) == 0 || avail <= 0 {
		return 0
	}
	before, _ := totalMsgs(jobs)
	accepted := m.cfg.Policy.Grow(jobs, avail)
	after, _ := totalMsgs(jobs)
	if sent := int(after - before); sent > 0 {
		m.growMsgs.Inc(m.engine.Now(), sent)
		if m.cfg.Stats != nil {
			m.cfg.Stats.GrowDecisions(m.engine.Now(), sent)
		}
	}
	if accepted == 0 {
		m.declined++
	}
	return accepted
}

// growAll runs grow rounds on the sites whose availability has increased
// since the last observation. The grow value of a round is the number of
// processors that *became* available since then (clamped to the current
// headroom): growth is driven by availability events — a job finishing, a
// local user leaving — exactly as §V-B describes, rather than by repeatedly
// re-offering idle capacity that the policies already declined.
//
// A round at the Version where the previous round ended is a no-op: every
// site's headroom still equals the prevAvail that round left, so no site
// grows and no state changes. It returns at once. snap must be the KIS's
// latest snapshot, as it is at every caller.
//
//koalalint:hotpath
func (m *Manager) growAll(snap koala.Snapshot) int {
	if m.sched.Version() == m.grownAt {
		if invariant.Checking {
			m.checkGrowSkip(snap)
		}
		return 0
	}
	total := 0
	for i := range m.sched.Sites() {
		avail := m.availableForGrowth(snap, i)
		grow := avail - max(m.prevAvail[i], 0)
		if grow > 0 && avail > 0 {
			if grow > avail {
				grow = avail
			}
			total += m.growSiteAt(i, grow)
			// Remember the post-round headroom (accepted growth is now in
			// flight and discounted by availableForGrowth).
			m.prevAvail[i] = m.availableForGrowth(snap, i)
			continue
		}
		m.prevAvail[i] = avail
	}
	m.grownAt = m.sched.Version()
	return total
}

// shrinkSiteAt requests need processors back from the malleable jobs of the
// site with dense index i, counting the shrink messages the policy sent.
func (m *Manager) shrinkSiteAt(i, need int) int {
	jobs := m.sched.RunningMalleableJobsAt(i)
	if len(jobs) == 0 || need <= 0 {
		return 0
	}
	_, before := totalMsgs(jobs)
	released := m.cfg.Policy.Shrink(jobs, need)
	_, after := totalMsgs(jobs)
	if sent := int(after - before); sent > 0 {
		m.shrinkMsgs.Inc(m.engine.Now(), sent)
		if m.cfg.Stats != nil {
			m.cfg.Stats.ShrinkDecisions(m.engine.Now(), sent)
		}
	}
	if released == 0 {
		m.declined++
	}
	return released
}

// shrinkTarget picks the site where mandatory shrinks make a blocked job
// of the given size fit: among the sites whose running malleable jobs
// could still give back the shortfall, the one with the smallest
// shortfall (the first such site on ties). fits reports that some site
// already has room once claims and in-flight growth are discounted — the
// placement failure was transient and nothing needs shrinking. best is -1
// when no site can host the job even with every malleable job at its
// minimum.
//
// Both of those answers compare need with a per-site maximum that is
// cached per Version, so they cost O(1); only a real shrink walks the
// sites. snap must be the KIS's latest snapshot, as it is at every caller.
//
//koalalint:hotpath
func (m *Manager) shrinkTarget(snap koala.Snapshot, need int) (best, short int, fits bool) {
	if v := m.sched.Version(); v != m.capStamp {
		m.maxIdle, m.maxCap = m.headroomMax(snap)
		m.capStamp = v
	}
	best = -1
	switch {
	case need <= m.maxIdle:
		fits = true
	case need <= m.maxCap:
		for i := range m.sched.Sites() {
			s := need - m.idleAt(snap, i)
			if m.sched.ShrinkableAt(i) >= s && (best < 0 || s < short) {
				best, short = i, s
			}
		}
	}
	if invariant.Checking {
		m.checkShrinkTarget(snap, need, best, short, fits)
	}
	return best, short, fits
}

// idleAt is site i's idle processors once claims and in-flight growth are
// discounted: what a placement there could use without shrinking anyone.
func (m *Manager) idleAt(snap koala.Snapshot, i int) int {
	return snap.IdleAt(i) - m.sched.PendingClaimsAt(i) - m.sched.InflightGrowthAt(i)
}

// headroomMax returns the largest idleAt over the sites and the largest
// idleAt plus shrinkable processors.
func (m *Manager) headroomMax(snap koala.Snapshot) (maxIdle, maxCap int) {
	for i := range m.sched.Sites() {
		idle := m.idleAt(snap, i)
		c := idle + m.sched.ShrinkableAt(i)
		if i == 0 || idle > maxIdle {
			maxIdle = idle
		}
		if i == 0 || c > maxCap {
			maxCap = c
		}
	}
	return maxIdle, maxCap
}
