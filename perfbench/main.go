// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads in this process, checks the outputs and prints every
// metric by name and unit; the last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload paper|contended|koalad --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that reports the per-layer metrics; it
// decorates the scheduler, policy and approach interfaces and keeps its
// spans in memory, writing them to .bench_build/spans-<workload>.json at
// the end.
//
// --steady N runs each named workload (comma-separated, or "all") N times
// as child processes with seeds seed..seed+N-1 and prints each end-to-end
// metric's median, quartiles and spread.
//
// Work per run is fixed by the workload and --seconds, never by a clock:
// identical code does identical work, so the exact counters repeat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; --trace 0 prints
// every one of them on every workload.
var endToEnd = []metricDef{
	{"reps_per_s", "1/s"},
	{"point_ms_p50", "ms"},
	{"point_ms_p90", "ms"},
	{"alloc_mb_per_rep", "MB"},
	{"submit_ms_p50", "ms"},
	{"submit_ms_p99", "ms"},
	{"first_event_ms_p50", "ms"},
	{"terminal_ms_p50", "ms"},
	{"terminal_ms_p99", "ms"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics; --trace 1 prints every one of
// them on every workload.
var perLayer = []metricDef{
	{"sim.events_fired_per_rep", "count"},
	{"sim.events_canceled_per_rep", "count"},
	{"sim.pending_peak", "count"},
	{"sim.ns_per_event", "ns"},
	{"koala.place_calls_per_rep", "count"},
	{"koala.place_ok_ratio", "ratio"},
	{"koala.place_ms_per_rep", "ms"},
	{"koala.blocked_calls_per_rep", "count"},
	{"koala.reserved_calls_per_rep", "count"},
	{"koala.queue_len_peak", "count"},
	{"core.poll_calls_per_rep", "count"},
	{"core.poll_ms_per_rep", "ms"},
	{"core.avail_ms_per_rep", "ms"},
	{"core.blocked_ms_per_rep", "ms"},
	{"core.policy_ms_per_rep", "ms"},
	{"core.grow_msgs_per_rep", "count"},
	{"core.shrink_msgs_per_rep", "count"},
	{"core.declined_per_rep", "count"},
	{"gram.submitted_per_rep", "count"},
	{"gram.activated_per_rep", "count"},
	{"gram.released_per_rep", "count"},
	{"workload.prepare_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"experiment.prepare_ms", "ms"},
	{"experiment.aggregate_ms_per_point", "ms"},
	{"experiment.rep_self_ms", "ms"},
	{"runtime.gc_cycles_per_rep", "count"},
	{"runtime.gc_pause_ms_per_rep", "ms"},
	{"server.decode_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.queue_wait_ms_p99", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.follower_stall_ms_p99", "ms"},
	{"server.throttled", "count"},
	{"store.write_ms_p50", "ms"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(opts) (*report, error){
	"paper":     runPaper,
	"contended": runContended,
	"koalad":    runKoalad,
}

// opts are one run's parameters.
type opts struct {
	seed    uint64
	seconds int
	trace   bool
	// spans is where --trace 1 writes its spans.
	spans string
}

// scratchDir is where the benchmark is built and keeps its temporary files
// (koalad's store, the span dump), relative to the repository root it runs
// from.
const scratchDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "paper, contended or koalad")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "work budget: sets the fixed amount of work, not a time box")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		steady  = flag.Int("steady", 0, "run each workload this many times as child processes and print spreads")
		digests = flag.Bool("write-digests", false, "recompute the sim points' digests into digests.json in the working directory and exit")
	)
	flag.Parse()
	if *digests {
		if err := writeDigests(); err != nil {
			fail(err)
		}
		return
	}
	if *steady > 0 {
		if err := runSteady(*name, *seed, *seconds, *steady); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (want paper, contended or koalad)", *name))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: filepath.Join(scratchDir, "spans-"+*name+".json")}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fail(err)
	}
	if err := loadDigests(); err != nil {
		fail(err)
	}
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out, err := rep.result(want)
	if err != nil {
		fail(err)
	}
	rep.printTable(want)
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// fail reports a benchmark error and exits without printing a result.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates a run's metrics, operation counts and check failures.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// problems lists failed output checks; any one makes the run incorrect.
	problems []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// failedFrac is the share of attempted operations that failed or were
// refused.
func failedFrac(r *report) float64 { return float64(r.failed) / float64(r.attempted) }

// problem records a failed output check on an attempted operation; it
// counts as a failed operation too.
func (r *report) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result assembles the output line; every metric in want must be set.
func (r *report) result(want []metricDef) (result, error) {
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return out, nil
}

// printTable writes the metrics in a readable table to standard output,
// ahead of the JSON line.
func (r *report) printTable(want []metricDef) {
	names := make([]string, 0, len(want))
	units := map[string]string{}
	for _, m := range want {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, r.values[n], units[n])
	}
}
