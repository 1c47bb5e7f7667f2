// Package report renders simulation results into the artifacts the paper's
// evaluation section presents: aligned text tables, ASCII bar/line charts
// for terminals, and CSV files for external plotting. The Fig1..Fig6 and
// Table1 builders each regenerate one of the paper's figures from a set of
// per-policy results.
package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"geovmp/internal/atomicfile"
	"geovmp/internal/dc"
	"geovmp/internal/metrics"
	"geovmp/internal/sim"
)

// Figure is one regenerated table or figure.
type Figure struct {
	ID      string     // "fig1", "table1", ...
	Title   string     // the paper's caption
	Headers []string   // CSV/table column names
	Rows    [][]string // data rows
	Chart   string     // optional ASCII rendering
	Notes   string     // interpretation guidance (who should win)
}

// Render returns the figure as human-readable text.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(f.ID), f.Title)
	b.WriteString(Table(f.Headers, f.Rows))
	if f.Chart != "" {
		b.WriteString(f.Chart)
		if !strings.HasSuffix(f.Chart, "\n") {
			b.WriteString("\n")
		}
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Notes)
	}
	return b.String()
}

// WriteCSV stores the figure's rows under dir as <id>.csv, through
// atomicfile.Write.
func (f *Figure) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString(strings.Join(f.Headers, ",") + "\n")
	for _, row := range f.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return atomicfile.Write(filepath.Join(dir, f.ID+".csv"), []byte(b.String()))
}

// Table renders an aligned text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// BarChart renders a horizontal bar chart of labeled values scaled to
// width characters for the largest value.
func BarChart(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	var max float64
	lw := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > lw {
			lw = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(v / max * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g\n", lw, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}

// LineChart renders a series as a coarse ASCII plot (values binned into
// width columns, height rows).
func LineChart(s *metrics.Series, width, height int) string {
	if s.Len() == 0 || width <= 0 || height <= 0 {
		return ""
	}
	ds := s
	if s.Len() > width {
		ds = s.Downsample((s.Len() + width - 1) / width)
	}
	maxY := ds.MaxY()
	if maxY <= 0 {
		maxY = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", ds.Len()))
	}
	for c, y := range ds.Y {
		r := height - 1 - int(y/maxY*float64(height-1))
		if r < 0 {
			r = 0
		}
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.4g)\n", s.Name, maxY)
	for _, row := range grid {
		b.WriteString("|" + string(row) + "\n")
	}
	b.WriteString("+" + strings.Repeat("-", ds.Len()) + "\n")
	return b.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// findProposed returns the result whose policy is the proposed method (by
// name), or the first result.
func findProposed(results []*sim.Result) *sim.Result {
	for _, r := range results {
		if r.Policy == "Proposed" {
			return r
		}
	}
	return results[0]
}

// Table1 regenerates Table I: the fleet's servers and energy sources.
func Table1(fleet dc.Fleet) *Figure {
	f := &Figure{
		ID:      "table1",
		Title:   "DCs number of servers and energy sources specification",
		Headers: []string{"DC", "Servers", "PV capacity (kWp)", "Battery capacity (kWh)"},
	}
	for _, d := range fleet {
		f.Rows = append(f.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", d.Servers),
			f2(d.Plant.Peak.KW()),
			f2(d.Bank.Capacity().KWh()),
		})
	}
	return f
}

// Fig1 regenerates Figure 1: weekly operational cost per method, normalized
// by the worst-case method.
func Fig1(results []*sim.Result) *Figure {
	costs := map[string]float64{}
	for _, r := range results {
		costs[r.Policy] = float64(r.OpCost)
	}
	norm := metrics.NormalizeByWorst(costs)
	prop := findProposed(results)
	f := &Figure{
		ID:      "fig1",
		Title:   "Normalized operational cost for time horizon of one week",
		Headers: []string{"method", "cost (EUR)", "normalized", "Proposed saves"},
		Notes:   "Proposed should be lowest; paper reports up to 55/25/35% savings vs Ener-/Pri-/Net-aware",
	}
	var labels []string
	var values []float64
	for _, r := range results {
		saving := metrics.Improvement(float64(prop.OpCost), float64(r.OpCost))
		savingStr := pct(saving)
		if r.Policy == prop.Policy {
			savingStr = "-"
		}
		f.Rows = append(f.Rows, []string{r.Policy, f2(float64(r.OpCost)), f4(norm[r.Policy]), savingStr})
		labels = append(labels, r.Policy)
		values = append(values, norm[r.Policy])
	}
	f.Chart = BarChart(labels, values, 40)
	return f
}

// Fig2 regenerates Figure 2: hourly energy consumed by the DCs plus weekly
// totals in GJ.
func Fig2(results []*sim.Result) *Figure {
	f := &Figure{
		ID:      "fig2",
		Title:   "Energy consumed by DCs for time horizon of one week",
		Headers: []string{"slot"},
		Notes:   "paper totals: 57/55/65/67 GJ for Proposed/Ener/Pri/Net — Ener and Proposed close, Pri and Net ~15% worse",
	}
	for _, r := range results {
		f.Headers = append(f.Headers, r.Policy+" (GJ)")
	}
	n := 0
	for _, r := range results {
		if r.EnergySeries.Len() > n {
			n = r.EnergySeries.Len()
		}
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i)}
		for _, r := range results {
			if i < r.EnergySeries.Len() {
				row = append(row, f4(r.EnergySeries.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		f.Rows = append(f.Rows, row)
	}
	var chart strings.Builder
	chart.WriteString("weekly totals:\n")
	var labels []string
	var totals []float64
	for _, r := range results {
		labels = append(labels, r.Policy)
		totals = append(totals, r.TotalEnergy.GJ())
	}
	chart.WriteString(BarChart(labels, totals, 40))
	chart.WriteString(LineChart(&results[0].EnergySeries, 72, 8))
	f.Chart = chart.String()
	return f
}

// Fig3 regenerates Figure 3: the probability distribution of normalized
// response time over the week.
func Fig3(results []*sim.Result) *Figure {
	// Normalize by the worst-case value among the methods, as the paper
	// does.
	var worst float64
	for _, r := range results {
		if w := r.RespSummary.Max(); w > worst {
			worst = w
		}
	}
	if worst == 0 {
		worst = 1
	}
	const bins = 20
	hists := make([]*metrics.Histogram, len(results))
	for i, r := range results {
		h := metrics.NewHistogram(0, 1.0000001, bins)
		for _, v := range r.RespSamples {
			h.Add(v / worst)
		}
		hists[i] = h
	}
	f := &Figure{
		ID:      "fig3",
		Title:   "Probability distribution of normalized response time in one week",
		Headers: []string{"bin-center"},
		Notes:   "worst-case (SLA) response: Proposed and Net-aware should beat Ener-/Pri-aware; paper reports up to 12% worst-case improvement",
	}
	for _, r := range results {
		f.Headers = append(f.Headers, r.Policy)
	}
	centers, _ := hists[0].PDF()
	for b := 0; b < bins; b++ {
		row := []string{f4(centers[b])}
		for _, h := range hists {
			_, probs := h.PDF()
			row = append(row, f4(probs[b]))
		}
		f.Rows = append(f.Rows, row)
	}
	var chart strings.Builder
	chart.WriteString("per-method response stats (normalized by worst case):\n")
	stat := [][]string{}
	for _, r := range results {
		stat = append(stat, []string{
			r.Policy,
			f4(r.RespSummary.Mean() / worst),
			f4(r.RespSummary.Std() / worst),
			f4(r.RespSummary.Max() / worst),
		})
	}
	chart.WriteString(Table([]string{"method", "mean", "std", "worst"}, stat))
	f.Chart = chart.String()
	return f
}

// Fig4 regenerates Figure 4: total cost, energy and performance
// improvements of Proposed versus each baseline.
func Fig4(results []*sim.Result) *Figure {
	prop := findProposed(results)
	f := &Figure{
		ID:      "fig4",
		Title:   "Total cost, energy and performance",
		Headers: []string{"method", "cost (EUR)", "energy (GJ)", "worst resp (s)", "cost saving", "energy saving", "perf gain"},
		Notes:   "paper: up to 55% cost, 15% energy and 12% performance improvements for Proposed",
	}
	for _, r := range results {
		cs, es, ps := "-", "-", "-"
		if r.Policy != prop.Policy {
			cs = pct(metrics.Improvement(float64(prop.OpCost), float64(r.OpCost)))
			es = pct(metrics.Improvement(prop.TotalEnergy.GJ(), r.TotalEnergy.GJ()))
			ps = pct(metrics.Improvement(prop.RespSummary.Max(), r.RespSummary.Max()))
		}
		f.Rows = append(f.Rows, []string{
			r.Policy,
			f2(float64(r.OpCost)),
			f4(r.TotalEnergy.GJ()),
			f4(r.RespSummary.Max()),
			cs, es, ps,
		})
	}
	return f
}

// Fig5 regenerates Figure 5: the cost-performance trade-off (normalized
// cost vs normalized worst-case response per method).
func Fig5(results []*sim.Result) *Figure {
	return tradeoffFigure(results, "fig5", "Cost-Performance trade-off",
		func(r *sim.Result) float64 { return float64(r.OpCost) }, "cost")
}

// Fig6 regenerates Figure 6: the energy-performance trade-off.
func Fig6(results []*sim.Result) *Figure {
	return tradeoffFigure(results, "fig6", "Energy-Performance trade-off",
		func(r *sim.Result) float64 { return r.TotalEnergy.GJ() }, "energy")
}

func tradeoffFigure(results []*sim.Result, id, title string, metric func(*sim.Result) float64, name string) *Figure {
	vals := map[string]float64{}
	resp := map[string]float64{}
	for _, r := range results {
		vals[r.Policy] = metric(r)
		resp[r.Policy] = r.RespSummary.Max()
	}
	nv := metrics.NormalizeByWorst(vals)
	nr := metrics.NormalizeByWorst(resp)
	f := &Figure{
		ID:      id,
		Title:   title,
		Headers: []string{"method", "normalized " + name, "normalized worst resp"},
		Notes:   "lower-left dominates; Proposed should sit on or near the Pareto front",
	}
	for _, r := range results {
		f.Rows = append(f.Rows, []string{r.Policy, f4(nv[r.Policy]), f4(nr[r.Policy])})
	}
	return f
}

// Summary renders a one-line-per-policy overview used by the CLI.
func Summary(results []*sim.Result) string {
	headers := []string{"method", "cost (EUR)", "energy (GJ)", "worst resp (s)", "mean resp (s)", "migrations", "mean servers", "grid (kWh)", "PV used (kWh)"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Policy,
			f2(float64(r.OpCost)),
			f4(r.TotalEnergy.GJ()),
			f2(r.RespSummary.Max()),
			f2(r.RespSummary.Mean()),
			fmt.Sprintf("%d", r.Migrations),
			f2(r.MeanActiveServers),
			f2(r.GridEnergy.KWh()),
			f2(r.RenewableUsed.KWh()),
		})
	}
	return Table(headers, rows)
}

// All regenerates every figure from a full set of results plus the fleet's
// Table I.
func All(fleet dc.Fleet, results []*sim.Result) []*Figure {
	return []*Figure{
		Table1(fleet),
		Fig1(results),
		Fig2(results),
		Fig3(results),
		Fig4(results),
		Fig5(results),
		Fig6(results),
	}
}
