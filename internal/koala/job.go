package koala

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/runner"
)

// File names an input file and its size, for the Close-to-Files policy.
type File struct {
	Name  string
	Bytes float64
}

// ComponentSpec describes one job component (§IV-A): the program to run,
// the number of processors it needs, and its input files. Jobs with several
// components are co-allocated across clusters.
type ComponentSpec struct {
	Profile *app.Profile
	// Size is the requested processor count: the fixed size for rigid
	// components, the initial size for malleable ones.
	Size       int
	InputFiles []File
}

// JobSpec is a complete job submission.
type JobSpec struct {
	ID         string
	Components []ComponentSpec
}

// Validate checks the spec for structural problems.
func (s *JobSpec) Validate() error {
	if len(s.Components) == 0 {
		return fmt.Errorf("koala: job %q has no components", s.ID)
	}
	malleable := false
	for i, c := range s.Components {
		if c.Profile == nil {
			return fmt.Errorf("koala: job %q component %d has no profile", s.ID, i)
		}
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("koala: job %q component %d: %w", s.ID, i, err)
		}
		if c.Size < c.Profile.Min || c.Size > c.Profile.Max {
			return fmt.Errorf("koala: job %q component %d size %d outside [%d,%d]",
				s.ID, i, c.Size, c.Profile.Min, c.Profile.Max)
		}
		if c.Profile.Class == app.Malleable {
			malleable = true
		}
	}
	if malleable && len(s.Components) > 1 {
		// §V-C: every malleable application executes in a single cluster;
		// malleability of co-allocated applications is future work.
		return fmt.Errorf("koala: job %q is malleable with %d components; malleable jobs are single-component", s.ID, len(s.Components))
	}
	return nil
}

// TotalSize returns the sum of the component sizes.
func (s *JobSpec) TotalSize() int {
	total := 0
	for _, c := range s.Components {
		total += c.Size
	}
	return total
}

// Malleable reports whether the job's (single) component is malleable.
func (s *JobSpec) Malleable() bool {
	return len(s.Components) == 1 && s.Components[0].Profile.Class == app.Malleable
}

// JobState is the lifecycle of a KOALA job.
type JobState int

const (
	// Waiting means the job sits in the placement queue.
	Waiting JobState = iota
	// Placing means components were placed and resources are being claimed.
	Placing
	// Running means the application(s) execute.
	Running
	// Finished means all components completed.
	Finished
	// Rejected means the placement-try threshold was exceeded (§IV-A).
	Rejected
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Placing:
		return "placing"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one submitted job tracked by the scheduler.
type Job struct {
	Spec JobSpec

	state JobState
	tries int
	// seq is the submission sequence number (position in Scheduler.Jobs());
	// it breaks start-time ties in the running-malleable-job order.
	seq int
	// sched owns the job; runner lifecycle notifications route back
	// through it (see JobStarted/JobFinished).
	sched *Scheduler

	submitTime float64
	placeTime  float64
	startTime  float64
	endTime    float64

	// mrunner is set for malleable jobs once placed.
	mrunner *runner.MRunner
	// rigidRunners are set for single-component rigid/moldable jobs.
	rigidRunners []*runner.RigidRunner
	// coRunner is set for multi-component (co-allocated) jobs.
	coRunner *runner.CoRunner
	// sites records where each placed component landed; sitesBuf is its
	// inline backing for the common one- and two-component cases.
	sites    []*Site
	sitesBuf [2]*Site
	// claims records the processors claimed per site (by the scheduler's
	// dense site index) while GRAM submissions are in flight; returned to
	// the scheduler's claims pool when the job starts.
	claims []int

	// runSite is 1 + the dense index of the site whose running-malleable
	// index holds the job, or 0 while it is not indexed. inflight and
	// shrinkable are the job's current contributions to that site's
	// running totals (see Scheduler.InflightGrowthAt/ShrinkableAt).
	runSite    int32
	inflight   int32
	shrinkable int32
}

// JobStarted implements runner.Lifecycle: every runner of the job reports
// into the owning scheduler without a per-job closure pair.
func (j *Job) JobStarted() { j.sched.jobStarted(j) }

// JobFinished implements runner.Lifecycle.
func (j *Job) JobFinished() { j.sched.jobFinished(j) }

// PlanChanged implements runner.PlanObserver: the job's malleable runner
// just changed its planned or held processor count.
//
//koalalint:hotpath
func (j *Job) PlanChanged() {
	if j.runSite != 0 {
		j.sched.planChanged(j)
	}
}

// planTerms returns the job's contributions to its site's running totals:
// max(0, planned − held) and max(0, planned − min).
//
//koalalint:hotpath
func (j *Job) planTerms() (inflight, shrinkable int32) {
	planned := j.PlannedProcs()
	if d := planned - j.HeldProcs(); d > 0 {
		inflight = int32(d)
	}
	if d := planned - j.MinProcs(); d > 0 {
		shrinkable = int32(d)
	}
	return inflight, shrinkable
}

// State returns the job lifecycle state.
func (j *Job) State() JobState { return j.state }

// Tries returns the number of placement attempts so far.
func (j *Job) Tries() int { return j.tries }

// SubmitTime returns when the job entered the system.
func (j *Job) SubmitTime() float64 { return j.submitTime }

// PlaceTime returns when placement succeeded (undefined before Placing).
func (j *Job) PlaceTime() float64 { return j.placeTime }

// StartTime returns when execution began (undefined before Running).
func (j *Job) StartTime() float64 { return j.startTime }

// EndTime returns when the job finished (undefined before Finished).
func (j *Job) EndTime() float64 { return j.endTime }

// Sites returns the execution sites of the placed components.
func (j *Job) Sites() []*Site { return j.sites }

// Site returns the single execution site of a single-component job, or nil.
func (j *Job) Site() *Site {
	if len(j.sites) != 1 {
		return nil
	}
	return j.sites[0]
}

// Malleable reports whether this is a malleable job.
func (j *Job) Malleable() bool { return j.Spec.Malleable() }

// MRunner exposes the malleable runner (nil for rigid jobs or before
// placement).
func (j *Job) MRunner() *runner.MRunner { return j.mrunner }

// RigidRunners exposes the rigid runners (empty for malleable jobs).
func (j *Job) RigidRunners() []*runner.RigidRunner { return j.rigidRunners }

// CoRunner exposes the co-allocating runner (nil unless multi-component).
func (j *Job) CoRunner() *runner.CoRunner { return j.coRunner }

// CurrentProcs returns the processors currently used by the job's
// application(s).
func (j *Job) CurrentProcs() int {
	if j.mrunner != nil {
		if x := j.mrunner.Execution(); x != nil && !x.Done() {
			return x.Procs()
		}
		return 0
	}
	if j.coRunner != nil {
		if j.coRunner.Running() {
			return j.coRunner.TotalSize()
		}
		return 0
	}
	total := 0
	for _, r := range j.rigidRunners {
		if r.Running() {
			total += r.Execution().Procs()
		}
	}
	return total
}

// HeldProcs returns the processors currently held at the clusters on behalf
// of the job, including stubs that are not yet recruited into the
// application.
func (j *Job) HeldProcs() int {
	if j.mrunner != nil {
		return j.mrunner.Nodes()
	}
	if j.coRunner != nil {
		return j.coRunner.Nodes()
	}
	total := 0
	for _, r := range j.rigidRunners {
		total += r.Nodes()
	}
	return total
}

// PlannedProcs returns the processor count after in-flight adaptations.
func (j *Job) PlannedProcs() int {
	if j.mrunner != nil {
		return j.mrunner.PlannedProcs()
	}
	return j.CurrentProcs()
}

// RequestGrow offers additional processors to a running malleable job and
// returns the accepted amount (§V-C protocol).
func (j *Job) RequestGrow(offer int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.RequestGrow(offer)
}

// RequestShrink asks a running malleable job to give processors back and
// returns the amount it will release.
func (j *Job) RequestShrink(request int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.RequestShrink(request)
}

// RequestVoluntaryShrink asks a running malleable job politely to give
// processors back; the application may decline (§II-D). It returns the
// amount it will release.
func (j *Job) RequestVoluntaryShrink(request int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.RequestVoluntaryShrink(request)
}

// AppRequestGrow lets the job's application itself ask the scheduler for
// more processors (§II-C). It returns the processors obtained.
func (j *Job) AppRequestGrow(amount int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.AppRequestGrow(amount)
}

// MinProcs returns the job's minimum processor requirement.
func (j *Job) MinProcs() int {
	total := 0
	for _, c := range j.Spec.Components {
		total += c.Profile.Min
	}
	return total
}

// MaxProcs returns the job's maximum useful processor count.
func (j *Job) MaxProcs() int {
	total := 0
	for _, c := range j.Spec.Components {
		total += c.Profile.Max
	}
	return total
}
