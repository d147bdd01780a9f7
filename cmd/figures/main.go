// Command figures regenerates every table and figure of the paper's
// evaluation (Table I, Fig. 6, Figs. 7a–f, Figs. 8a–f) from the simulation.
//
// Usage:
//
//	figures [-runs N] [-parallel N] [-seed S] [-csv] [-only 7a,8f,...]
//	        [-version]
//
// Without -only, everything is produced in paper order. Output goes to
// stdout; -csv switches from aligned columns to CSV. Per-job records are
// kept only for an approach whose CDF or series figures are selected;
// -only summary computes the summary tables from the streamed aggregates
// alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/experiment"
)

func main() {
	version := flag.Bool("version", false, "print version and exit")
	runs := flag.Int("runs", 4, "independent runs per combination (the paper uses 4)")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines per sweep fan-out (1 = serial; default: one per CPU)")
	seed := flag.Uint64("seed", 1, "base random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned columns")
	only := flag.String("only", "", "comma-separated subset (table1,6,7a..7f,8a..8f,summary)")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("figures"))
		return
	}
	if *par < 1 {
		fmt.Fprintf(os.Stderr, "figures: -parallel must be at least 1 worker (got %d); omit the flag for one per CPU\n", *par)
		os.Exit(1)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "figures: -runs must be at least 1 (got %d)\n", *runs)
		os.Exit(1)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	emit := func(fig experiment.Figure) {
		if *csv {
			fmt.Print(fig.CSV())
		} else {
			fmt.Print(fig.Render())
		}
		fmt.Println()
	}

	if selected("table1") {
		fmt.Println("# Table I — the distribution of the nodes over the DAS clusters")
		fmt.Println(experiment.Table1())
	}
	if selected("6") {
		emit(experiment.Fig6())
	}

	base := experiment.Config{Runs: *runs, Parallelism: *par, Seed: *seed}
	for _, ap := range []struct {
		name, fig string
		combos    []experiment.Combo
		end, step float64 // the Figs. e/f time axis
	}{
		{"PRA", "7", experiment.PRACombos(), 40000, 500},
		{"PWA", "8", experiment.PWACombos(), 12000, 200},
	} {
		figs := []struct {
			id   string
			draw func(*experiment.Set, string) experiment.Figure
		}{
			{ap.fig + "a", (*experiment.Set).FigSizesAvg},
			{ap.fig + "b", (*experiment.Set).FigSizesMax},
			{ap.fig + "c", (*experiment.Set).FigExecTimes},
			{ap.fig + "d", (*experiment.Set).FigResponseTimes},
			{ap.fig + "e", func(s *experiment.Set, id string) experiment.Figure { return s.FigUtilization(id, 0, ap.end, ap.step) }},
			{ap.fig + "f", func(s *experiment.Set, id string) experiment.Figure { return s.FigOps(id, 0, ap.end, ap.step) }},
		}
		records := false
		for _, f := range figs {
			records = records || selected(f.id)
		}
		if !records && !selected("summary") {
			continue
		}
		set, err := runSet(ap.name, ap.combos, base, records)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		for _, f := range figs {
			if selected(f.id) {
				emit(f.draw(set, f.id))
			}
		}
		if selected("summary") {
			fmt.Printf("# %s summary (Fig. %s aggregate)\n", ap.name, ap.fig)
			fmt.Println(set.SummaryTable())
		}
	}
}

// runSet runs an approach's sweep. The CDF and series figures read
// per-job records and per-run series, so only they keep records; the
// summary table needs nothing but each point's streamed aggregate.
func runSet(approach string, combos []experiment.Combo, base experiment.Config, records bool) (*experiment.Set, error) {
	if records {
		return experiment.RunSet(approach, combos, base)
	}
	results, err := experiment.RunSetStream(context.Background(), approach, combos, base)
	if err != nil {
		return nil, err
	}
	set := &experiment.Set{Approach: approach, Results: make(map[string]*experiment.Result, len(combos))}
	for i, c := range combos {
		set.Results[c.Label] = &experiment.Result{StreamResult: results[i]}
		set.Labels = append(set.Labels, c.Label)
	}
	return set, nil
}
