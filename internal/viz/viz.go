// Package viz renders experiment artifacts as standalone SVG documents:
// line charts for the hourly energy series (Fig. 2), bar charts for
// normalized costs (Fig. 1), step histograms for the response-time
// distribution (Fig. 3), scatter plots for the trade-off figures (Figs.
// 5-6), and a plane view of the force-directed embedding. Everything is
// stdlib-only string assembly; the output opens in any browser.
package viz

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"geovmp/internal/atomicfile"
	"geovmp/internal/embed"
	"geovmp/internal/metrics"
)

// Size of the generated documents.
const (
	width   = 720
	height  = 420
	marginL = 70
	marginR = 30
	marginT = 40
	marginB = 50
)

// palette cycles through distinguishable stroke colors.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"}

// Color returns the palette color for series index i.
func Color(i int) string { return palette[i%len(palette)] }

// doc wraps body elements into an SVG document with a title.
func doc(title string, body ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`, width/2, escape(title))
	for _, el := range body {
		b.WriteString(el)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// plot maps data coordinates into the chart viewport.
type plot struct {
	x0, x1, y0, y1 float64 // data ranges
}

func (p plot) px(x float64) float64 {
	if p.x1 == p.x0 {
		return marginL
	}
	return marginL + (x-p.x0)/(p.x1-p.x0)*float64(width-marginL-marginR)
}

func (p plot) py(y float64) float64 {
	if p.y1 == p.y0 {
		return float64(height - marginB)
	}
	return float64(height-marginB) - (y-p.y0)/(p.y1-p.y0)*float64(height-marginT-marginB)
}

// axes renders the frame, labels and 4 y-ticks.
func (p plot) axes(xlabel, ylabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`,
		marginL, marginT, width-marginL-marginR, height-marginT-marginB)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`,
		width/2, height-12, escape(xlabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`,
		height/2, height/2, escape(ylabel))
	for i := 0; i <= 4; i++ {
		y := p.y0 + (p.y1-p.y0)*float64(i)/4
		py := p.py(y)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`,
			marginL, py, width-marginR, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`,
			marginL-6, py+3, y)
	}
	return b.String()
}

// legend renders one entry per named series.
func legend(names []string) string {
	var b strings.Builder
	for i, n := range names {
		x := marginL + 10 + (i%4)*160
		y := marginT + 14 + (i/4)*16
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, y-9, Color(i))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`, x+14, y, escape(n))
	}
	return b.String()
}

// LineChart renders one or more series as polylines.
func LineChart(title, xlabel, ylabel string, series ...*metrics.Series) string {
	var p plot
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				p = plot{x0: s.X[i], x1: s.X[i], y0: 0, y1: s.Y[i]}
				first = false
			}
			p.x0 = math.Min(p.x0, s.X[i])
			p.x1 = math.Max(p.x1, s.X[i])
			p.y1 = math.Max(p.y1, s.Y[i])
		}
	}
	if first {
		return doc(title)
	}
	body := []string{p.axes(xlabel, ylabel)}
	var names []string
	for k, s := range series {
		var pts strings.Builder
		for i := range s.X {
			fmt.Fprintf(&pts, "%.1f,%.1f ", p.px(s.X[i]), p.py(s.Y[i]))
		}
		body = append(body, fmt.Sprintf(`<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
			strings.TrimSpace(pts.String()), Color(k)))
		names = append(names, s.Name)
	}
	body = append(body, legend(names))
	return doc(title, body...)
}

// BarChart renders labeled vertical bars.
func BarChart(title, ylabel string, labels []string, values []float64) string {
	if len(labels) == 0 {
		return doc(title)
	}
	var maxV float64
	for _, v := range values {
		maxV = math.Max(maxV, v)
	}
	p := plot{x0: 0, x1: float64(len(values)), y0: 0, y1: maxV}
	body := []string{p.axes("", ylabel)}
	bw := float64(width-marginL-marginR) / float64(len(values))
	for i, v := range values {
		x := p.px(float64(i)) + bw*0.15
		y := p.py(v)
		h := float64(height-marginB) - y
		body = append(body, fmt.Sprintf(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
			x, y, bw*0.7, h, Color(i)))
		body = append(body, fmt.Sprintf(`<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`,
			x+bw*0.35, height-marginB+16, escape(labels[i])))
		body = append(body, fmt.Sprintf(`<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%.3g</text>`,
			x+bw*0.35, y-4, v))
	}
	return doc(title, body...)
}

// Histogram renders per-method step outlines of binned probabilities.
// curves[name] are equal-length bin probabilities over [0, 1].
func Histogram(title, xlabel string, names []string, curves [][]float64) string {
	if len(curves) == 0 || len(curves[0]) == 0 {
		return doc(title)
	}
	bins := len(curves[0])
	var maxP float64
	for _, c := range curves {
		for _, v := range c {
			maxP = math.Max(maxP, v)
		}
	}
	p := plot{x0: 0, x1: 1, y0: 0, y1: maxP}
	body := []string{p.axes(xlabel, "probability")}
	for k, c := range curves {
		var pts strings.Builder
		for i, v := range c {
			xl := float64(i) / float64(bins)
			xr := float64(i+1) / float64(bins)
			fmt.Fprintf(&pts, "%.1f,%.1f %.1f,%.1f ", p.px(xl), p.py(v), p.px(xr), p.py(v))
		}
		body = append(body, fmt.Sprintf(`<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
			strings.TrimSpace(pts.String()), Color(k)))
	}
	body = append(body, legend(names))
	return doc(title, body...)
}

// ScatterPoint is one labeled marker.
type ScatterPoint struct {
	X, Y  float64
	Label string
}

// Scatter renders labeled points — the trade-off figures.
func Scatter(title, xlabel, ylabel string, pts []ScatterPoint) string {
	if len(pts) == 0 {
		return doc(title)
	}
	p := plot{x0: 0, x1: 0, y0: 0, y1: 0}
	for _, pt := range pts {
		p.x1 = math.Max(p.x1, pt.X*1.1)
		p.y1 = math.Max(p.y1, pt.Y*1.1)
	}
	body := []string{p.axes(xlabel, ylabel)}
	for i, pt := range pts {
		body = append(body, fmt.Sprintf(`<circle cx="%.1f" cy="%.1f" r="5" fill="%s"/>`,
			p.px(pt.X), p.py(pt.Y), Color(i)))
		body = append(body, fmt.Sprintf(`<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`,
			p.px(pt.X)+8, p.py(pt.Y)+4, escape(pt.Label)))
	}
	return doc(title, body...)
}

// Plane renders an embedding layout, coloring each point by its group
// (e.g. assigned DC or service), with group labels in the legend. Points
// are drawn in ascending id order, so one layout always renders to the
// same bytes.
func Plane(title string, pos map[int]embed.Point, groupOf func(id int) int, groupNames []string) string {
	if len(pos) == 0 {
		return doc(title)
	}
	p := plot{}
	first := true
	for _, pt := range pos {
		if first {
			p = plot{x0: pt.X, x1: pt.X, y0: pt.Y, y1: pt.Y}
			first = false
		}
		p.x0 = math.Min(p.x0, pt.X)
		p.x1 = math.Max(p.x1, pt.X)
		p.y0 = math.Min(p.y0, pt.Y)
		p.y1 = math.Max(p.y1, pt.Y)
	}
	body := []string{p.axes("x", "y")}
	for _, id := range slices.Sorted(maps.Keys(pos)) {
		pt := pos[id]
		g := 0
		if groupOf != nil {
			g = groupOf(id)
		}
		body = append(body, fmt.Sprintf(`<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s" fill-opacity="0.7"/>`,
			p.px(pt.X), p.py(pt.Y), Color(g)))
	}
	if len(groupNames) > 0 {
		body = append(body, legend(groupNames))
	}
	return doc(title, body...)
}

// Save writes an SVG document to dir/name.svg, through atomicfile.Write.
func Save(dir, name, svg string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(dir, name+".svg"), []byte(svg))
}
