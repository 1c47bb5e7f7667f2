package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/metrics"
	"geovmp/internal/sim"
	"geovmp/internal/units"
)

// fakeResults builds a deterministic result set without running the
// simulator.
func fakeResults() []*sim.Result {
	mk := func(name string, cost, energyGJ float64, resp []float64) *sim.Result {
		r := &sim.Result{Policy: name, OpCost: units.Money(cost), TotalEnergy: units.Energy(energyGJ * 1e9)}
		for i, v := range resp {
			r.RespSamples = append(r.RespSamples, v)
			r.RespSummary.Add(v)
			r.EnergySeries.Append(float64(i), energyGJ/float64(len(resp)))
			r.CostSeries.Append(float64(i), cost/float64(len(resp)))
		}
		return r
	}
	return []*sim.Result{
		mk("Proposed", 100, 57, []float64{1, 2, 3, 2, 1}),
		mk("Ener-aware", 220, 55, []float64{0.5, 6, 1, 0.5, 0.5}),
		mk("Pri-aware", 160, 65, []float64{0.5, 5, 2, 4, 0.3}),
		mk("Net-aware", 180, 67, []float64{1.5, 2, 1.8, 2.2, 2.0}),
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxxxxx", "1"}, {"y", "2"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator not aligned with header")
	}
	if !strings.Contains(lines[0], "long-header") {
		t.Fatal("header missing")
	}
}

func TestBarChartScaling(t *testing.T) {
	out := BarChart([]string{"a", "b"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Fatalf("half bar wrong: %q", lines[0])
	}
}

func TestBarChartZeroValues(t *testing.T) {
	out := BarChart([]string{"a"}, []float64{0}, 10)
	if !strings.Contains(out, "a") {
		t.Fatal("label missing for zero value")
	}
}

func TestLineChart(t *testing.T) {
	var s metrics.Series
	s.Name = "test"
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(i%10))
	}
	out := LineChart(&s, 40, 6)
	if !strings.Contains(out, "test") {
		t.Fatal("series name missing")
	}
	if strings.Count(out, "\n") < 7 {
		t.Fatal("chart too short")
	}
	if LineChart(&metrics.Series{}, 10, 5) != "" {
		t.Fatal("empty series should render nothing")
	}
}

func TestFig1NormalizationAndSavings(t *testing.T) {
	f := Fig1(fakeResults())
	if f.ID != "fig1" {
		t.Fatal("wrong id")
	}
	// Ener-aware is the worst (220): its normalized value must be 1.
	found := false
	for _, row := range f.Rows {
		if row[0] == "Ener-aware" {
			found = true
			if row[2] != "1.0000" {
				t.Fatalf("worst-case normalization = %s", row[2])
			}
			if row[3] != "54.5%" {
				t.Fatalf("saving vs Ener = %s, want 54.5%%", row[3])
			}
		}
		if row[0] == "Proposed" && row[3] != "-" {
			t.Fatal("proposed should not report saving vs itself")
		}
	}
	if !found {
		t.Fatal("Ener-aware row missing")
	}
	if f.Chart == "" {
		t.Fatal("no chart")
	}
}

func TestFig2TotalsAndSeries(t *testing.T) {
	f := Fig2(fakeResults())
	if len(f.Headers) != 5 {
		t.Fatalf("headers = %v", f.Headers)
	}
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 slots", len(f.Rows))
	}
	if !strings.Contains(f.Chart, "weekly totals") {
		t.Fatal("totals missing from chart")
	}
}

func TestFig3Distribution(t *testing.T) {
	f := Fig3(fakeResults())
	if len(f.Rows) != 20 {
		t.Fatalf("bins = %d, want 20", len(f.Rows))
	}
	// Each method's PDF must sum to ~1.
	for c := 1; c < len(f.Headers); c++ {
		var sum float64
		for _, row := range f.Rows {
			var v float64
			if _, err := fmtSscan(row[c], &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("method %s PDF sums to %v", f.Headers[c], sum)
		}
	}
	if !strings.Contains(f.Chart, "worst") {
		t.Fatal("stats table missing")
	}
}

func TestFig4Improvements(t *testing.T) {
	f := Fig4(fakeResults())
	for _, row := range f.Rows {
		if row[0] == "Ener-aware" {
			// Cost saving (220-100)/220 = 54.5%; energy (55-57)/55 = -3.6%.
			if row[4] != "54.5%" {
				t.Fatalf("cost saving = %s", row[4])
			}
			if row[5] != "-3.6%" {
				t.Fatalf("energy saving = %s", row[5])
			}
			// Perf: worst 6 vs 3 -> 50%.
			if row[6] != "50.0%" {
				t.Fatalf("perf gain = %s", row[6])
			}
		}
	}
}

func TestFig5Fig6Tradeoffs(t *testing.T) {
	for _, f := range []*Figure{Fig5(fakeResults()), Fig6(fakeResults())} {
		if len(f.Rows) != 4 {
			t.Fatalf("%s rows = %d", f.ID, len(f.Rows))
		}
		for _, row := range f.Rows {
			var v float64
			if _, err := fmtSscan(row[1], &v); err != nil || v < 0 || v > 1 {
				t.Fatalf("%s: normalized value %s out of range", f.ID, row[1])
			}
		}
	}
}

func TestTable1(t *testing.T) {
	sc, err := config.Build(config.Spec{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := Table1(sc.Fleet)
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if f.Rows[0][1] != "1500" || f.Rows[2][3] != "480.00" {
		t.Fatalf("Table I values wrong: %v", f.Rows)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	f := Fig1(fakeResults())
	if err := f.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "method,") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestAllProducesSevenFigures(t *testing.T) {
	sc, err := config.Build(config.Spec{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	figs := All(sc.Fleet, fakeResults())
	if len(figs) != 7 {
		t.Fatalf("figures = %d, want 7", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		if f.Render() == "" {
			t.Fatalf("%s renders empty", f.ID)
		}
	}
	for _, want := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestSummary(t *testing.T) {
	out := Summary(fakeResults())
	if !strings.Contains(out, "Proposed") || !strings.Contains(out, "cost (EUR)") {
		t.Fatal("summary incomplete")
	}
}

// fmtSscan wraps fmt.Sscan to keep the test imports tidy.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestSaveSVGs(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSVGs(dir, fakeResults()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1", "fig2", "fig3", "fig5", "fig6"} {
		data, err := os.ReadFile(filepath.Join(dir, name+".svg"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Fatalf("%s: not an SVG", name)
		}
	}
}
