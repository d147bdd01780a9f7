package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := buildSchedule(7, 3), buildSchedule(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules for the same seed differ")
	}
	if reflect.DeepEqual(a, buildSchedule(8, 3)) {
		t.Fatal("schedules for different seeds are identical")
	}
	classes := map[opClass]int{}
	for i, o := range a {
		classes[o.class]++
		if i > 0 && o.due < a[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.due, i-1, a[i-1].due)
		}
		if o.class != follower {
			continue
		}
		c := a[o.pair]
		if c.class != cold || c.coldID != o.coldID || string(c.body) != string(o.body) || c.due > o.due {
			t.Fatalf("follower %d is not paired with its cold op: %+v", i, c)
		}
	}
	if classes[hot] == 0 || classes[follower] == 0 || classes[cold] < classes[follower] {
		t.Fatalf("unexpected mix %v", classes)
	}
}

func TestLatencyIsMeasuredFromDueTime(t *testing.T) {
	// One worker, two ops due at once: the second waits for the first,
	// which holds the worker for hold after answering at once.
	const hold = 30 * time.Millisecond
	ops := []op{{class: hot}, {class: hot}}
	res, late := runOpenLoop(ops, 1, func(o op, start time.Time, posted func()) opResult {
		r := opResult{sent: time.Since(start)}
		r.submitted = r.sent
		posted()
		time.Sleep(hold)
		return r
	})
	if got := latency(ops[1].due, res[1].submitted); got < ms(hold) {
		t.Fatalf("second op's submit latency %.2f ms, want at least the %v it waited", got, hold)
	}
	if own := ms(res[1].submitted - res[1].sent); own > 1 {
		t.Fatalf("second op's own submit time %.2f ms, want about 0", own)
	}
	if late[1] < ms(hold) || late[0] > ms(hold) {
		t.Fatalf("generator lateness %v, want the second op late by at least %v", late, hold)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{15, 20, 35, 40, 50}, 5, 15},
		{[]float64{15, 20, 35, 40, 50}, 30, 20},
		{[]float64{15, 20, 35, 40, 50}, 40, 20},
		{[]float64{15, 20, 35, 40, 50}, 50, 35},
		{[]float64{15, 20, 35, 40, 50}, 100, 50},
		{[]float64{20, 16, 3, 6, 7, 8, 8, 10, 13, 15}, 25, 7},
		{[]float64{20, 16, 3, 6, 7, 8, 8, 10, 13, 15}, 50, 8},
		{[]float64{20, 16, 3, 6, 7, 8, 8, 10, 13, 15}, 75, 15},
		{[]float64{20, 16, 3, 6, 7, 8, 8, 10, 13, 15}, 99, 20},
	} {
		if got := percentile(append([]float64(nil), tc.xs...), tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, [3]float64{6.75, 9, 15.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestFailedCountsRefusedAndErroredOps(t *testing.T) {
	ops := []op{{class: hot}, {class: cold}, {class: hot}, {class: cold}}
	warm := [][]byte{[]byte(`{"s":1}`)}
	res := []opResult{
		{status: http.StatusOK, cached: true, summary: warm[0]},
		{status: http.StatusTooManyRequests, err: errors.New("POST: 429")},
		{status: http.StatusOK, err: errors.New("stream ended without a summary event")},
		{status: http.StatusAccepted, summary: []byte(`{"s":2}`)},
	}
	rep := newReport()
	throttled := checkOps(ops, res, warm, rep)
	if rep.attempted != 4 || rep.failed != 2 || throttled != 1 {
		t.Fatalf("attempted %d failed %d throttled %d, want 4, 2, 1", rep.attempted, rep.failed, throttled)
	}
	if got := failedFrac(rep); got != 0.5 {
		t.Fatalf("failed_frac %g, want 0.5", got)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	before := map[string]float64{`h_bucket{le="0.1"}`: 1, `h_bucket{le="1"}`: 1, `h_bucket{le="+Inf"}`: 1}
	after := map[string]float64{`h_bucket{le="0.1"}`: 5, `h_bucket{le="1"}`: 9, `h_bucket{le="+Inf"}`: 9}
	// Eight new observations: four at or below 0.1, four in (0.1, 1].
	if got := histQuantile(before, after, "h", 0.5); got != 0.1 {
		t.Fatalf("median %g, want 0.1", got)
	}
	if got := histQuantile(before, after, "h", 0.75); got < 0.54 || got > 0.56 {
		t.Fatalf("p75 %g, want 0.55", got)
	}
}

func TestTracedReplicationMatchesRunOnce(t *testing.T) {
	wl := workload.Wmr(3)
	wl.Jobs = 30
	for _, approach := range []string{"PRA", "PWA"} {
		p, err := experiment.Prepare(experiment.Config{Workload: wl, Approach: approach, Runs: 2, Seed: 3, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := runPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := newTracedPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		rep := newReport()
		_, reps, _, err := tracedRounds([]*tracedPoint{tp}, 2, tr, rep, map[string]string{p.Config().Name: want.digest()})
		if err != nil {
			t.Fatal(err)
		}
		if reps != 4 || rep.failed != 0 {
			t.Fatalf("%s: %d traced replications, problems %v", approach, reps, rep.problems)
		}
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
