package pareto

import (
	"encoding/json"
	"fmt"
	"slices"

	"geovmp/internal/atomicfile"
)

// FrontierPoint is one evaluated configuration of a scenario's frontier:
// either a knob-driven point (HasKnob, the knob value that produced it) or a
// named baseline policy evaluated alongside the sweep. V holds the
// mean-over-seeds objective vector, aligned with the frontier's objective
// names; Rank is the point's non-domination level (0 = on the front).
type FrontierPoint struct {
	Name    string    `json:"name"`
	Knob    float64   `json:"-"`
	HasKnob bool      `json:"-"`
	V       []float64 `json:"objectives"`
	Rank    int       `json:"rank"`
}

// ScenarioFrontier is one scenario's resolved trade-off frontier: every
// evaluated point with its non-domination rank, the Pareto-optimal subset,
// the knee selection, and the quality indicators over the front.
type ScenarioFrontier struct {
	Scenario   string   `json:"scenario"`
	Objectives []string `json:"objectives"`
	// Points holds every evaluated configuration in stable order: knob
	// points ascending by knob value, then baselines ascending by name.
	Points []FrontierPoint `json:"points"`
	// Front indexes the Pareto-optimal points of Points, ascending.
	Front []int `json:"front"`
	// Knee indexes Points at the front's knee point (-1 when empty).
	Knee int `json:"knee"`
	// Ref is the hypervolume reference point (derived from the evaluated
	// set unless the driver was given one).
	Ref []float64 `json:"ref"`
	// Hypervolume and Spread are the front's quality indicators.
	Hypervolume float64 `json:"hypervolume"`
	Spread      float64 `json:"spread"`
	// Waves counts the evaluation rounds the driver scheduled (1 for a
	// fixed grid); Evals counts evaluated configurations, baselines
	// included.
	Waves int `json:"waves"`
	Evals int `json:"evals"`
}

// KneePoint returns the knee selection, or nil for an empty frontier.
func (sf *ScenarioFrontier) KneePoint() *FrontierPoint {
	if sf.Knee < 0 || sf.Knee >= len(sf.Points) {
		return nil
	}
	return &sf.Points[sf.Knee]
}

// comparePoints is the canonical point order — knob points ascending by
// knob (ties by name), then baselines ascending by name. Resolve and the
// JSON export share it, so Front/Knee indexes and export rows can never
// desynchronize.
func comparePoints(a, b *FrontierPoint) int {
	switch {
	case a.HasKnob && !b.HasKnob:
		return -1
	case !a.HasKnob && b.HasKnob:
		return 1
	case a.HasKnob && b.HasKnob && a.Knob != b.Knob:
		if a.Knob < b.Knob {
			return -1
		}
		return 1
	case a.Name < b.Name:
		return -1
	case a.Name > b.Name:
		return 1
	}
	return 0
}

// sortPoints orders points canonically (comparePoints).
func sortPoints(points []FrontierPoint) {
	slices.SortStableFunc(points, func(a, b FrontierPoint) int { return comparePoints(&a, &b) })
}

// Resolve finalizes a scenario frontier from its evaluated points: sorts
// them canonically, computes non-domination ranks, the front, the knee and
// the indicators. ref overrides the reference point; nil derives one from
// the evaluated set (Reference with a 5% margin). The input slice is taken
// over by the result.
func Resolve(scenario string, objectives []string, points []FrontierPoint, ref []float64, waves int) (*ScenarioFrontier, error) {
	for i := range points {
		if len(points[i].V) != len(objectives) {
			return nil, fmt.Errorf("pareto: point %q has %d objectives, want %d", points[i].Name, len(points[i].V), len(objectives))
		}
	}
	sortPoints(points)
	pts := make([]Point, len(points))
	for i := range points {
		pts[i] = Point{Name: points[i].Name, V: points[i].V}
	}
	ranks := Ranks(pts)
	var front []int
	for i, r := range ranks {
		points[i].Rank = r
		if r == 0 {
			front = append(front, i)
		}
	}
	if ref == nil {
		ref = Reference(pts, 0.05)
	}
	sf := &ScenarioFrontier{
		Scenario:    scenario,
		Objectives:  objectives,
		Points:      points,
		Front:       front,
		Knee:        Knee(pts, front),
		Ref:         ref,
		Hypervolume: Hypervolume(pts, ref),
		Spread:      Spread(pts, front),
		Waves:       waves,
		Evals:       len(points),
	}
	return sf, nil
}

// FrontierSet is the structured outcome of a frontier run: one resolved
// frontier per scenario, in scenario order.
type FrontierSet struct {
	Objectives []string
	Seeds      int
	Scenarios  []*ScenarioFrontier
}

// frontierPointJSON is the export row for one point. The knob is a pointer
// so baselines encode as null rather than a fake value, and rows carry the
// front/knee markers inline so the export is self-describing.
type frontierPointJSON struct {
	Name       string    `json:"name"`
	Knob       *float64  `json:"knob"`
	Objectives []float64 `json:"objectives"`
	Rank       int       `json:"rank"`
	OnFront    bool      `json:"on_front"`
	Knee       bool      `json:"knee,omitempty"`
}

type scenarioFrontierJSON struct {
	Scenario    string              `json:"scenario"`
	Objectives  []string            `json:"objectives"`
	Ref         []float64           `json:"ref"`
	Hypervolume float64             `json:"hypervolume"`
	Spread      float64             `json:"spread"`
	Waves       int                 `json:"waves"`
	Evals       int                 `json:"evals"`
	Points      []frontierPointJSON `json:"points"`
}

// JSON renders the set as indented JSON. The encoding is deterministic:
// scenarios stay in run order and points are re-sorted into the canonical
// order (knob ascending, then baselines by name) on every export, so the
// bytes are independent of how the evaluation waves were scheduled — the
// property the golden frontier fixture pins.
func (fs *FrontierSet) JSON() ([]byte, error) {
	type setJSON struct {
		Objectives []string               `json:"objectives"`
		Seeds      int                    `json:"seeds"`
		Scenarios  []scenarioFrontierJSON `json:"scenarios"`
	}
	out := setJSON{Objectives: fs.Objectives, Seeds: fs.Seeds}
	for _, sf := range fs.Scenarios {
		points := append([]FrontierPoint(nil), sf.Points...)
		perm := make([]int, len(points)) // perm[new] = old index
		for i := range perm {
			perm[i] = i
		}
		// Sort an index view so the front/knee markers can be remapped.
		slices.SortStableFunc(perm, func(a, b int) int {
			return comparePoints(&points[a], &points[b])
		})
		onFront := make(map[int]bool, len(sf.Front))
		for _, i := range sf.Front {
			onFront[i] = true
		}
		row := scenarioFrontierJSON{
			Scenario:    sf.Scenario,
			Objectives:  sf.Objectives,
			Ref:         sf.Ref,
			Hypervolume: sf.Hypervolume,
			Spread:      sf.Spread,
			Waves:       sf.Waves,
			Evals:       sf.Evals,
		}
		for _, old := range perm {
			p := points[old]
			pj := frontierPointJSON{
				Name:       p.Name,
				Objectives: p.V,
				Rank:       p.Rank,
				OnFront:    onFront[old],
				Knee:       old == sf.Knee,
			}
			if p.HasKnob {
				k := p.Knob
				pj.Knob = &k
			}
			row.Points = append(row.Points, pj)
		}
		out.Scenarios = append(out.Scenarios, row)
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteJSON stores the JSON export and a trailing newline at path through
// atomicfile.Write, so a kill mid-write never leaves a truncated export.
func (fs *FrontierSet) WriteJSON(path string) error {
	b, err := fs.JSON()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, append(b, '\n'))
}
