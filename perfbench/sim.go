package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// A sim workload is a fixed list of experiment points, run serially on
// one simulation worker (Parallelism 1), the way a researcher reruns the
// paper's sweep. One round runs every point once; a run is setup, then a
// fixed number of rounds. The points replay a fixed seed list, so their
// result digests can be stored beside the benchmark; --seed does not
// change a sim workload's inputs.
type simWorkload struct {
	name    string
	configs func() []experiment.Config
	// roundsPer10s sizes the work: a run of --seconds S runs
	// ceil(S*roundsPer10s/10) rounds, about S seconds on a 2-vCPU host.
	roundsPer10s int
}

func (w simWorkload) rounds(seconds int) int {
	return (seconds*w.roundsPer10s + 9) / 10
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// paperSeed is the base seed of every paper point: replication i of a
// point runs seed paperSeed+i.
const paperSeed = 1

// paper is the §VI evaluation: the four Fig. 7 PRA points (FPSMA/EGS x
// Wm/Wmr) and the four Fig. 8 PWA points (FPSMA/EGS x W'm/W'mr), each
// pooling four replications.
var paper = simWorkload{
	name: "paper",
	configs: func() []experiment.Config {
		base := experiment.Config{Runs: 4, Parallelism: 1, Seed: paperSeed}
		cfgs := experiment.ComboConfigs("PRA", experiment.PRACombos(), base)
		return append(cfgs, experiment.ComboConfigs("PWA", experiment.PWACombos(), base)...)
	},
	roundsPer10s: 60,
}

// Contended-queue parameters: Wmr (50% rigid) at 1 s inter-arrival under
// FPSMA/PWA with the busy PWA background, one replication per point.
const (
	contendedJobs   = 600
	contendedPoints = 4
	contendedSeed   = 101
)

var contended = simWorkload{
	name: "contended",
	configs: func() []experiment.Config {
		bg := experiment.PWABackground()
		cfgs := make([]experiment.Config, contendedPoints)
		for i := range cfgs {
			seed := contendedSeed + uint64(i)
			wl := workload.Wmr(seed)
			wl.Name = "Wmr-1s"
			wl.Jobs = contendedJobs
			wl.InterArrival = 1
			cfgs[i] = experiment.Config{
				Name:        fmt.Sprintf("PWA/FPSMA/Wmr-1s/%d", seed),
				Workload:    wl,
				Policy:      "FPSMA",
				Approach:    "PWA",
				Runs:        1,
				Parallelism: 1,
				Seed:        seed,
				Background:  &bg,
			}
		}
		return cfgs
	},
	roundsPer10s: 22,
}

func runPaper(o opts) (*report, error)     { return runSim(paper, o) }
func runContended(o opts) (*report, error) { return runSim(contended, o) }

// storedDigests holds, per sim workload, the digest of every point's
// results for its fixed seed list (digests.json, refreshed by
// --write-digests).
//
//go:embed digests.json
var digestsJSON []byte

var storedDigests map[string]map[string]string

func loadDigests() error {
	if err := json.Unmarshal(digestsJSON, &storedDigests); err != nil {
		return fmt.Errorf("reading digests.json: %w", err)
	}
	return nil
}

// writeDigests runs every sim point once and rewrites digests.json.
func writeDigests() error {
	all := map[string]map[string]string{}
	for _, w := range []simWorkload{paper, contended} {
		preps, err := prepareAll(w.configs())
		if err != nil {
			return err
		}
		all[w.name] = map[string]string{}
		for _, p := range preps {
			pr, err := runPoint(p)
			if err != nil {
				return err
			}
			all[w.name][p.Config().Name] = pr.digest()
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("digests.json", append(b, '\n'), 0o644)
}

// prepareAll runs experiment.Prepare on every config.
func prepareAll(cfgs []experiment.Config) ([]*experiment.Prepared, error) {
	preps := make([]*experiment.Prepared, len(cfgs))
	for i, c := range cfgs {
		p, err := experiment.Prepare(c)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", c.Name, err)
		}
		preps[i] = p
	}
	return preps, nil
}

// pointResult is one experiment point's replications plus the aggregate
// a koalasim invocation or a koalad run computes from them.
type pointResult struct {
	runs []*experiment.RunResult
	agg  *metrics.Aggregate
	// firstDone is when the first replication completed.
	firstDone time.Time
	// aggregate is the time spent folding records into agg.
	aggregate time.Duration
}

// runPoint runs every replication of a prepared point serially.
func runPoint(p *experiment.Prepared) (pointResult, error) {
	cfg := p.Config()
	pr := pointResult{runs: make([]*experiment.RunResult, cfg.Runs), agg: metrics.NewAggregate()}
	for i := range pr.runs {
		r, err := p.RunOnce(cfg.Seed + uint64(i))
		if err != nil {
			return pr, err
		}
		pr.runs[i] = r
		t := time.Now()
		if i == 0 {
			pr.firstDone = t
		}
		pr.agg.ObserveAll(r.Records)
		pr.aggregate += time.Since(t)
	}
	return pr, nil
}

// digest hashes everything the point produced: each replication's seed,
// rejections, makespan, malleability operations, mean utilisation and
// per-job records, then the aggregate's summaries.
func (pr pointResult) digest() string {
	h := sha256.New()
	var b []byte
	u := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	f := func(x float64) { u(math.Float64bits(x)) }
	s := func(x string) { u(uint64(len(x))); b = append(b, x...) }
	for _, r := range pr.runs {
		b = b[:0]
		u(r.Seed)
		u(uint64(r.Rejected))
		f(r.Makespan)
		f(r.TotalOps)
		if r.Makespan > 0 {
			f(r.Utilization.MeanOver(0, r.Makespan))
		}
		u(uint64(len(r.Records)))
		for _, rec := range r.Records {
			s(rec.ID)
			s(rec.App)
			s(rec.Site)
			if rec.Malleable {
				u(1)
			} else {
				u(0)
			}
			f(rec.SubmitTime)
			f(rec.StartTime)
			f(rec.EndTime)
			f(rec.ExecutionTime)
			f(rec.ResponseTime)
			f(rec.WaitTime)
			f(rec.AvgProcs)
			u(uint64(rec.MaxProcs))
			u(uint64(rec.InitProcs))
		}
		h.Write(b)
	}
	a := pr.agg
	sum, _ := json.Marshal([]any{a.Jobs, a.Malleable, a.Exec.Summary(), a.Response.Summary(),
		a.Wait.Summary(), a.AvgProcs.Summary(), a.MaxProcs.Summary()})
	h.Write(sum)
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a point's digest with the wanted one.
func checkDigest(rep *report, want map[string]string, point, got string) {
	rep.attempted++
	switch w, ok := want[point]; {
	case !ok:
		rep.problem("no digest to compare for point %s", point)
	case got != w:
		rep.problem("point %s: digest %.12s, want %.12s", point, got, w)
	}
}

// setupSim is everything before a sim workload's first timed operation:
// build the configs, Prepare every point and warm up with one untimed
// round. It runs setupRepeats times and returns the last preparation
// with the median setup time and the median Prepare/PrepareSpec totals.
func setupSim(w simWorkload) (preps []*experiment.Prepared, setup, prepare, wlPrepare float64, err error) {
	var setups, prepares, wlPrepares []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cfgs := w.configs()
		// PrepareSpec alone, for workload.prepare_ms: Prepare repeats it.
		t1 := time.Now()
		for _, c := range cfgs {
			if _, err := workload.PrepareSpec(c.Workload); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		wlPrepares = append(wlPrepares, ms(time.Since(t1)))
		t2 := time.Now()
		if preps, err = prepareAll(cfgs); err != nil {
			return nil, 0, 0, 0, err
		}
		prepares = append(prepares, ms(time.Since(t2)))
		for _, p := range preps {
			if _, err := runPoint(p); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return preps, median(setups), median(prepares), median(wlPrepares), nil
}

// simRounds is what a series of timed rounds measured.
type simRounds struct {
	rounds, reps int
	roundSec     []float64 // wall time per round
	// Per point, one value per round.
	pointMs    [][]float64 // the point's wall time
	submitMs   [][]float64 // round start -> point start
	firstMs    [][]float64 // round start -> first replication done
	terminalMs [][]float64 // round start -> point done

	gapMs       []float64 // previous point done -> next point start
	aggregateMs []float64 // aggregation time per point
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
}

// measureRounds runs rounds timed rounds over the prepared points. Every
// point of a round is due at the round's start, as when a researcher
// launches the whole sweep on one worker. After each round, outside the
// timed span, each point's digest is checked against want (nil checks
// nothing); the last round's digests are returned.
func measureRounds(preps []*experiment.Prepared, rounds int, rep *report, want map[string]string) (simRounds, map[string]string, error) {
	n := len(preps)
	m := simRounds{rounds: rounds, pointMs: make([][]float64, n), submitMs: make([][]float64, n),
		firstMs: make([][]float64, n), terminalMs: make([][]float64, n)}
	got := map[string]string{}
	results := make([]pointResult, len(preps))
	runtime.GC()
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		prevEnd := start
		for i, p := range preps {
			t := time.Now()
			pr, err := runPoint(p)
			if err != nil {
				return m, nil, err
			}
			end := time.Now()
			results[i] = pr
			m.pointMs[i] = append(m.pointMs[i], ms(end.Sub(t)))
			m.submitMs[i] = append(m.submitMs[i], ms(t.Sub(start)))
			m.firstMs[i] = append(m.firstMs[i], ms(pr.firstDone.Sub(start)))
			m.terminalMs[i] = append(m.terminalMs[i], ms(end.Sub(start)))
			m.gapMs = append(m.gapMs, ms(t.Sub(prevEnd)))
			m.aggregateMs = append(m.aggregateMs, ms(pr.aggregate))
			m.reps += len(pr.runs)
			prevEnd = end
		}
		m.roundSec = append(m.roundSec, time.Since(start).Seconds())
		// Allocation and GC are counted over the timed span only, not over
		// the digest checks below.
		runtime.ReadMemStats(&after)
		m.allocBytes += after.TotalAlloc - before.TotalAlloc
		m.gcCycles += after.NumGC - before.NumGC
		m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		for i, p := range preps {
			name := p.Config().Name
			got[name] = results[i].digest()
			if want != nil {
				checkDigest(rep, want, name, got[name])
			}
		}
	}
	return m, got, nil
}

// repsPerSec is replications per second at the median round time.
func (m simRounds) repsPerSec() float64 {
	return float64(m.reps) / float64(m.rounds) / median(m.roundSec)
}

// acrossPoints is the p-th percentile, across the points, of each point's
// median over the rounds. Taking each point's median first keeps the
// figure to the points' costs: a point's slowest rounds measure the host
// more than the program.
func acrossPoints(per [][]float64, p float64) float64 {
	meds := make([]float64, len(per))
	for i, xs := range per {
		meds[i] = median(xs)
	}
	return percentile(meds, p)
}

// runSim runs a sim workload: the end-to-end measurement, or with
// o.trace the traced run.
func runSim(w simWorkload, o opts) (*report, error) {
	rep := newReport()
	preps, setup, prepare, wlPrepare, err := setupSim(w)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return rep, traceSim(w, preps, o, rep, prepare, wlPrepare)
	}
	m, _, err := measureRounds(preps, w.rounds(o.seconds), rep, storedDigests[w.name])
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	rep.set("reps_per_s", m.repsPerSec())
	rep.set("point_ms_p50", acrossPoints(m.pointMs, 50))
	rep.set("point_ms_p90", acrossPoints(m.pointMs, 90))
	rep.set("alloc_mb_per_rep", float64(m.allocBytes)/1e6/float64(m.reps))
	rep.set("submit_ms_p50", acrossPoints(m.submitMs, 50))
	rep.set("submit_ms_p99", acrossPoints(m.submitMs, 99))
	rep.set("first_event_ms_p50", acrossPoints(m.firstMs, 50))
	rep.set("terminal_ms_p50", acrossPoints(m.terminalMs, 50))
	rep.set("terminal_ms_p99", acrossPoints(m.terminalMs, 99))
	return rep, nil
}
