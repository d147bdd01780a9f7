package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []stats.Point
}

// Figure is the data behind one figure of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render formats the figure as aligned columns: one X column followed by one
// column per series.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	fmt.Fprintf(&b, "%-12s", "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-12.6g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %14.6g", s.Points[i].Percent)
			} else {
				fmt.Fprintf(&b, " %14s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, ",%g", s.Points[i].Percent)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig6 regenerates Figure 6: the execution times of the two applications
// versus the number of machines, straight from the runtime models.
func Fig6() Figure {
	ft := app.FTModel()
	gadget := app.GadgetModel()
	var ftPts, gPts []stats.Point
	for p := 1; p <= 46; p++ {
		ftPts = append(ftPts, stats.Point{X: float64(p), Percent: ft.Time(p)})
		gPts = append(gPts, stats.Point{X: float64(p), Percent: gadget.Time(p)})
	}
	return Figure{
		ID:     "6",
		Title:  "Execution times of the two applications vs number of machines",
		XLabel: "Number of machines",
		YLabel: "Time (s)",
		Series: []Series{{Label: "FT", Points: ftPts}, {Label: "Gadget2", Points: gPts}},
	}
}

// Table1 renders Table I (the DAS-3 node distribution).
func Table1() string { return cluster.DAS3().TableI() }

// Combo names one (policy, workload) curve of Figs. 7 and 8.
type Combo struct {
	Policy   string
	Workload func(seed uint64) workload.Spec
	Label    string
}

// PRACombos are the four curves of Fig. 7.
func PRACombos() []Combo {
	return []Combo{
		{Policy: "FPSMA", Workload: workload.Wm, Label: "FPSMA/Wm"},
		{Policy: "FPSMA", Workload: workload.Wmr, Label: "FPSMA/Wmr"},
		{Policy: "EGS", Workload: workload.Wm, Label: "EGS/Wm"},
		{Policy: "EGS", Workload: workload.Wmr, Label: "EGS/Wmr"},
	}
}

// PWACombos are the four curves of Fig. 8.
func PWACombos() []Combo {
	return []Combo{
		{Policy: "FPSMA", Workload: workload.WmPrime, Label: "FPSMA/W'm"},
		{Policy: "FPSMA", Workload: workload.WmrPrime, Label: "FPSMA/W'mr"},
		{Policy: "EGS", Workload: workload.WmPrime, Label: "EGS/W'm"},
		{Policy: "EGS", Workload: workload.WmrPrime, Label: "EGS/W'mr"},
	}
}

// Set holds the results for the four combos of one approach — the common
// input of the six sub-figures.
type Set struct {
	Approach string
	Results  map[string]*Result // keyed by combo label, insertion-ordered via Labels
	Labels   []string
}

// RunSet executes the four combos of an approach. Opts tweak the base
// config (runs, seed, grid, parallelism) for every combo.
func RunSet(approach string, combos []Combo, base Config) (*Set, error) {
	return RunSetContext(context.Background(), approach, combos, base)
}

// ComboConfigs expands an approach's combos into per-combo configs the
// way RunSet does (PWA background preset, approach/policy/workload and
// name filled in, defaults resolved). It is the shared front half of
// RunSetContext and RunSetStream.
func ComboConfigs(approach string, combos []Combo, base Config) []Config {
	if base.Background == nil && !base.NoBackground && approach == "PWA" {
		// The PWA experiments ran under much heavier shared-testbed
		// conditions (see PWABackground).
		bg := PWABackground()
		base.Background = &bg
	}
	cfgs := make([]Config, len(combos))
	for i, combo := range combos {
		cfg := base
		cfg.Approach = approach
		cfg.Policy = combo.Policy
		cfg.Workload = combo.Workload(base.Seed)
		cfg.Name = fmt.Sprintf("%s/%s", approach, combo.Label)
		cfgs[i] = cfg.withDefaults()
	}
	return cfgs
}

// RunSetContext is RunSet with cancellation: RunSetStream's fan-out with
// per-job records kept. Every combo's replications draw from one shared
// budget of base.Parallelism concurrent simulations. The Labels order
// (and therefore every figure's series order) and each combo's pooled
// record order match the serial loops exactly.
func RunSetContext(ctx context.Context, approach string, combos []Combo, base Config) (*Set, error) {
	p := localPoint{lim: parallel.NewLimiter(base.Parallelism), keep: true}
	results, err := eachCombo(ctx, ComboConfigs(approach, combos, base), func(ctx context.Context, cfg Config) (*Result, error) {
		return p.run(ctx, cfg, StreamHooks{})
	})
	if err != nil {
		return nil, err
	}
	set := &Set{Approach: approach, Results: make(map[string]*Result, len(combos))}
	for c, combo := range combos {
		set.Results[combo.Label] = results[c]
		set.Labels = append(set.Labels, combo.Label)
	}
	return set, nil
}

// cdfFigure builds a four-series CDF figure over a record field.
func (s *Set) cdfFigure(id, title, xlabel string, xs []float64,
	extract func(*Result) []float64) Figure {
	fig := Figure{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: "Cumulative number of jobs (%)",
	}
	for _, label := range s.Labels {
		cdf := stats.NewCDF(extract(s.Results[label]))
		fig.Series = append(fig.Series, Series{Label: label, Points: cdf.SampleAt(xs)})
	}
	return fig
}

func gridF(lo, hi, step float64) []float64 {
	var xs []float64
	for x := lo; x <= hi+1e-9; x += step {
		xs = append(xs, x)
	}
	return xs
}

// FigSizesAvg is Fig. 7(a)/8(a): the CDF of the number of processors per
// job averaged over its execution time (malleable jobs).
func (s *Set) FigSizesAvg(id string) Figure {
	return s.cdfFigure(id, "Average number of processors per job",
		"Average number of processors per job", gridF(0, 46, 1),
		func(r *Result) []float64 { return metrics.AvgProcsOf(r.MalleableRecords()) })
}

// FigSizesMax is Fig. 7(b)/8(b): the CDF of the maximal processor count
// reached per job.
func (s *Set) FigSizesMax(id string) Figure {
	return s.cdfFigure(id, "Maximum number of processors per job",
		"Maximum number of processors per job", gridF(0, 46, 1),
		func(r *Result) []float64 { return metrics.MaxProcsOf(r.MalleableRecords()) })
}

// FigExecTimes is Fig. 7(c)/8(c): the CDF of job execution times.
func (s *Set) FigExecTimes(id string) Figure {
	return s.cdfFigure(id, "Job execution times", "Execution time (s)", gridF(0, 1200, 20),
		func(r *Result) []float64 { return metrics.ExecTimesOf(r.Pooled) })
}

// FigResponseTimes is Fig. 7(d)/8(d): the CDF of job response times.
func (s *Set) FigResponseTimes(id string) Figure {
	return s.cdfFigure(id, "Job response times", "Response time (s)", gridF(0, 2000, 20),
		func(r *Result) []float64 { return metrics.ResponseTimesOf(r.Pooled) })
}

// FigUtilization is Fig. 7(e)/8(e): total used processors over time
// (first run of each combo, sampled on a common grid).
func (s *Set) FigUtilization(id string, start, end, step float64) Figure {
	fig := Figure{
		ID:     id,
		Title:  "Utilization of the platform during the experiment",
		XLabel: "Time (s)",
		YLabel: "Total number of used processors",
	}
	for _, label := range s.Labels {
		r := s.Results[label]
		if len(r.Runs) == 0 {
			continue
		}
		fig.Series = append(fig.Series, Series{
			Label:  label,
			Points: r.Runs[0].Utilization.Sample(start, end, step),
		})
	}
	return fig
}

// FigOps is Fig. 7(f)/8(f): the cumulative number of malleability
// operations over time (first run of each combo). Under PRA only grow
// operations occur; under PWA the curve sums grows and shrinks.
func (s *Set) FigOps(id string, start, end, step float64) Figure {
	fig := Figure{
		ID:     id,
		Title:  "Activity of the malleability manager",
		XLabel: "Time (s)",
		YLabel: "Number of malleability operations",
	}
	for _, label := range s.Labels {
		r := s.Results[label]
		if len(r.Runs) == 0 {
			continue
		}
		run := r.Runs[0]
		var pts []stats.Point
		for _, x := range gridF(start, end, step) {
			pts = append(pts, stats.Point{X: x, Percent: run.GrowOps.At(x) + run.ShrinkOps.At(x)})
		}
		fig.Series = append(fig.Series, Series{Label: label, Points: pts})
	}
	return fig
}

// SummaryTable renders per-combo aggregate statistics, ordered by label.
func (s *Set) SummaryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s %8s\n",
		"combo", "jobs", "mean-exec", "mean-resp", "mean-util", "ops/run", "rejected")
	labels := append([]string(nil), s.Labels...)
	sort.Strings(labels)
	for _, label := range labels {
		r := s.Results[label]
		fmt.Fprintf(&b, "%-14s %8d %10.1f %10.1f %10.1f %10.1f %8d\n",
			label, r.Jobs(), r.MeanExecution(), r.MeanResponse(),
			r.MeanUtilization(), r.TotalOps(), r.Rejected())
	}
	return b.String()
}
