package viz

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geovmp/internal/embed"
	"geovmp/internal/metrics"
)

// assertValidSVG parses the document and checks basic structure.
func assertValidSVG(t *testing.T, svg string) {
	t.Helper()
	var node struct {
		XMLName xml.Name
	}
	if err := xml.Unmarshal([]byte(svg), &node); err != nil {
		t.Fatalf("invalid XML: %v\n%s", err, svg[:min(len(svg), 400)])
	}
	if node.XMLName.Local != "svg" {
		t.Fatalf("root element %q, want svg", node.XMLName.Local)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func seriesOf(name string, ys ...float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, y := range ys {
		s.Append(float64(i), y)
	}
	return s
}

func TestLineChart(t *testing.T) {
	svg := LineChart("energy", "slot", "GJ",
		seriesOf("Proposed", 1, 2, 3, 2, 1),
		seriesOf("Ener-aware", 2, 2, 2, 2, 2))
	assertValidSVG(t, svg)
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("want one polyline per series")
	}
	if !strings.Contains(svg, "Proposed") || !strings.Contains(svg, "GJ") {
		t.Fatal("legend or axis label missing")
	}
}

func TestLineChartEmpty(t *testing.T) {
	assertValidSVG(t, LineChart("empty", "x", "y"))
}

func TestBarChart(t *testing.T) {
	svg := BarChart("cost", "normalized", []string{"A", "B", "C"}, []float64{0.5, 1.0, 0.8})
	assertValidSVG(t, svg)
	// 1 frame rect + 1 background + 3 bars.
	if strings.Count(svg, "<rect") != 5 {
		t.Fatalf("rect count = %d, want 5", strings.Count(svg, "<rect"))
	}
}

func TestBarChartEmpty(t *testing.T) {
	assertValidSVG(t, BarChart("none", "y", nil, nil))
}

func TestHistogram(t *testing.T) {
	svg := Histogram("resp", "normalized response", []string{"m1", "m2"},
		[][]float64{{0.1, 0.5, 0.4}, {0.2, 0.2, 0.6}})
	assertValidSVG(t, svg)
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("want one step line per method")
	}
}

func TestScatter(t *testing.T) {
	svg := Scatter("tradeoff", "cost", "resp", []ScatterPoint{
		{X: 0.5, Y: 0.3, Label: "Proposed"},
		{X: 1.0, Y: 0.2, Label: "Net-aware"},
	})
	assertValidSVG(t, svg)
	if strings.Count(svg, "<circle") != 2 {
		t.Fatal("want one marker per point")
	}
	if !strings.Contains(svg, "Net-aware") {
		t.Fatal("point label missing")
	}
}

func TestPlane(t *testing.T) {
	pos := map[int]embed.Point{
		0: {X: -1, Y: 0},
		1: {X: 1, Y: 0},
		2: {X: 0, Y: 2},
	}
	svg := Plane("layout", pos, func(id int) int { return id % 2 }, []string{"dc0", "dc1"})
	assertValidSVG(t, svg)
	if strings.Count(svg, "<circle") != 3 {
		t.Fatal("want one dot per VM")
	}
}

// TestPlaneDeterministic renders one layout several times: the points are
// drawn in id order, not map order, so every rendering is the same bytes,
// and the first circle drawn is the lowest id's.
func TestPlaneDeterministic(t *testing.T) {
	pos := map[int]embed.Point{}
	for id := 0; id < 64; id++ {
		pos[id] = embed.Point{X: float64(id % 7), Y: float64(id / 7)}
	}
	group := func(id int) int { return id % 3 }
	want := Plane("layout", pos, group, []string{"a", "b", "c"})
	for range 8 {
		if got := Plane("layout", pos, group, []string{"a", "b", "c"}); got != want {
			t.Fatal("the same layout rendered to different bytes")
		}
	}
	p := plot{x0: 0, x1: 6, y0: 0, y1: 9}
	first := fmt.Sprintf(`<circle cx="%.1f" cy="%.1f"`, p.px(0), p.py(0))
	if i := strings.Index(want, "<circle"); i < 0 || !strings.HasPrefix(want[i:], first) {
		t.Fatalf("first circle is not id 0's %s", first)
	}
}

func TestPlaneEmpty(t *testing.T) {
	assertValidSVG(t, Plane("empty", nil, nil, nil))
}

func TestEscape(t *testing.T) {
	svg := BarChart(`a<b & "c"`, "y", []string{"<l>"}, []float64{1})
	assertValidSVG(t, svg)
	if strings.Contains(svg, "a<b") {
		t.Fatal("title not escaped")
	}
}

func TestSave(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, "fig1", BarChart("t", "y", []string{"a"}, []float64{1})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.svg"))
	if err != nil {
		t.Fatal(err)
	}
	assertValidSVG(t, string(data))
}

func TestColorCycles(t *testing.T) {
	if Color(0) == Color(1) {
		t.Fatal("adjacent colors identical")
	}
	if Color(0) != Color(len(palette)) {
		t.Fatal("palette does not cycle")
	}
}
