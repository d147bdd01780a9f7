package experiment

import (
	"os"
	"strings"
	"testing"
)

const figuresGoldenPath = "testdata/figures_golden.txt"

// TestFiguresMatchGolden pins the rendered text of every table and figure
// of the evaluation — Table I, Fig. 6, Figs. 7a–f and 8a–f and both
// summary tables — on a two-replication sweep of the full testbed, with
// the same sampling grids cmd/figures uses. A refactor of the experiment
// drivers must leave it byte-identical; regenerate only when a change is
// meant to alter results:
//
//	go test ./internal/experiment -run TestFiguresMatchGolden -update-goldens
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-testbed sweep")
	}
	base := Config{Runs: 2, Seed: 1}
	pra, err := RunSet("PRA", PRACombos(), base)
	if err != nil {
		t.Fatal(err)
	}
	pwa, err := RunSet("PWA", PWACombos(), base)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	b.WriteString(Table1())
	for _, f := range []Figure{
		Fig6(),
		pra.FigSizesAvg("7a"), pra.FigSizesMax("7b"), pra.FigExecTimes("7c"),
		pra.FigResponseTimes("7d"), pra.FigUtilization("7e", 0, 40000, 500), pra.FigOps("7f", 0, 40000, 500),
		pwa.FigSizesAvg("8a"), pwa.FigSizesMax("8b"), pwa.FigExecTimes("8c"),
		pwa.FigResponseTimes("8d"), pwa.FigUtilization("8e", 0, 12000, 200), pwa.FigOps("8f", 0, 12000, 200),
	} {
		b.WriteString(f.Render())
	}
	b.WriteString(pra.SummaryTable())
	b.WriteString(pwa.SummaryTable())
	got := b.String()

	if *updateGoldens {
		if err := os.WriteFile(figuresGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", figuresGoldenPath)
		return
	}
	want, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-goldens): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figures diverge from %s at line %d:\n got %q\nwant %q", figuresGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figures diverge from %s: %d lines, golden has %d", figuresGoldenPath, len(gl), len(wl))
	}
}
