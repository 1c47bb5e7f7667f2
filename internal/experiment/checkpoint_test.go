package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/pareto"
	"geovmp/internal/policy"
	"geovmp/internal/report"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/viz"
)

func ckTestGrid(t *testing.T) Grid {
	t.Helper()
	spec, err := config.Preset("paper-geo3dc")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Seed = 7
	spec.Horizon = timeutil.Hours(4)
	spec.FineStepSec = 300
	return Grid{
		Scenarios: []config.Spec{spec},
		Policies: []PolicySpec{
			{Name: "Ener-aware", New: func(uint64) policy.Policy { return policy.EnerAware{} }},
			{Name: "Pri-aware", New: func(uint64) policy.Policy { return policy.PriAware{} }},
		},
		SeedOffsets: []uint64{0, 1},
	}
}

// TestResumeSkipsRecompute: a fully-checkpointed grid replays without a
// single workload compilation, and its export is byte-identical.
func TestResumeSkipsRecompute(t *testing.T) {
	g := ckTestGrid(t)
	set, err := Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	ckBytes, err := set.CheckpointJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckBytes, want) {
		t.Fatalf("completed set's CheckpointJSON differs from JSON")
	}

	ck, err := ParseCheckpoint(ckBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Loaded != 4 || ck.Skipped != 0 {
		t.Fatalf("checkpoint loaded=%d skipped=%d, want 4/0", ck.Loaded, ck.Skipped)
	}

	g2 := g
	g2.Resume = ck
	before := CompileCount()
	set2, err := Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if delta := CompileCount() - before; delta != 0 {
		t.Fatalf("resumed run compiled %d columns, want 0", delta)
	}
	got, err := set2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed export differs from original")
	}
}

// TestWriteAtomic: the JSON exports, report.Figure.WriteCSV and viz.Save
// write exactly their document (the JSON exports with a trailing newline)
// and leave no temp file behind on success, and a write that fails (the
// temp path is taken by a directory) leaves the previous file
// byte-identical.
func TestWriteAtomic(t *testing.T) {
	set, err := NewSet(ckTestGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int, cost float64) *CellData {
		c := &set.Cells[i]
		return &CellData{Scenario: c.Scenario, Policy: c.Policy, Seed: c.Seed, CostEUR: cost}
	}
	setFirst := func() { set.Cells[0].Data, set.Cells[1].Data = row(0, 1), nil }
	setNext := func() { set.Cells[1].Data = row(1, 2) }
	fs := &pareto.FrontierSet{Objectives: []string{"cost_eur"}}
	withNewline := func(doc func() ([]byte, error)) func() ([]byte, error) {
		return func() ([]byte, error) {
			b, err := doc()
			return append(b, '\n'), err
		}
	}
	fig := &report.Figure{ID: "fig", Headers: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	svg := "<svg>1</svg>"
	dir := t.TempDir()
	for _, w := range []struct {
		file        string
		write       func(string) error
		doc         func() ([]byte, error)
		first, next func()
	}{
		{"WriteJSON.json", set.WriteJSON, withNewline(set.JSON), setFirst, setNext},
		{"WriteCheckpoint.json", set.WriteCheckpoint, withNewline(set.CheckpointJSON), setFirst, setNext},
		{"FrontierWriteJSON.json", fs.WriteJSON, withNewline(fs.JSON), func() { fs.Seeds = 1 }, func() { fs.Seeds = 2 }},
		{"fig.csv", func(p string) error { return fig.WriteCSV(filepath.Dir(p)) },
			func() ([]byte, error) { return []byte("a,b\n" + fig.Rows[0][0] + ",2\n"), nil },
			func() { fig.Rows[0][0] = "1" }, func() { fig.Rows[0][0] = "3" }},
		{"plot.svg", func(p string) error { return viz.Save(filepath.Dir(p), "plot", svg) },
			func() ([]byte, error) { return []byte(svg), nil },
			func() { svg = "<svg>1</svg>" }, func() { svg = "<svg>2</svg>" }},
	} {
		w.first()
		path := filepath.Join(dir, w.file)
		if err := w.write(path); err != nil {
			t.Fatal(err)
		}
		want, err := w.doc()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: wrote %q (%v), want %q", w.file, got, err, want)
		}
		if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%s: left its temp file behind (%v)", w.file, err)
		}

		w.next()
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := w.write(path); err == nil {
			t.Fatalf("%s: write succeeded with its temp path taken by a directory", w.file)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: failed write changed the previous file to %q (%v)", w.file, got, err)
		}
	}
}

// TestResumePartialRecomputesOnlyMissing: rows absent from the checkpoint
// are recomputed; present ones are preloaded verbatim.
func TestResumePartialRecomputesOnlyMissing(t *testing.T) {
	g := ckTestGrid(t)
	set, err := Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Keep only seed-offset-0 rows: drop every row whose seed is 8 (base
	// 7 + offset 1).
	ckBytes, err := set.CheckpointJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(ckBytes, &doc); err != nil {
		t.Fatal(err)
	}
	cells := doc["cells"].([]any)
	var kept []any
	for _, c := range cells {
		if c.(map[string]any)["seed"].(float64) == 7 {
			kept = append(kept, c)
		}
	}
	doc["cells"] = kept
	partial, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ParseCheckpoint(partial)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Loaded != 2 {
		t.Fatalf("partial checkpoint loaded %d rows, want 2", ck.Loaded)
	}

	g2 := g
	g2.Resume = ck
	set2, err := Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := set2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partially-resumed export differs from original")
	}
	// The preloaded cells carry Data, the recomputed ones live Results.
	for i := range set2.Cells {
		c := &set2.Cells[i]
		switch {
		case c.Seed == 7 && c.Data == nil:
			t.Fatalf("cell %d (seed 7) was not preloaded", i)
		case c.Seed == 8 && c.Result == nil:
			t.Fatalf("cell %d (seed 8) was not recomputed", i)
		}
	}
}

// TestResumeDuplicateIdentitiesFIFO: a grid naming two different policies
// alike has two cells per (scenario, policy, seed) identity. Its own export
// resumes it without a compile and byte-identically, and a checkpoint
// holding one row for the doubled identity resumes the first cell, in grid
// order, and recomputes the second.
func TestResumeDuplicateIdentitiesFIFO(t *testing.T) {
	g := ckTestGrid(t)
	g.Policies[1].Name = g.Policies[0].Name
	g.SeedOffsets = []uint64{0}
	set, err := Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := set.At(0, 0, 0).Result, set.At(0, 1, 0).Result; a.OpCost == b.OpCost && a.TotalEnergy == b.TotalEnergy {
		t.Fatal("the two same-named policies gave equal rows: the test cannot tell them apart")
	}

	g2 := g
	if g2.Resume, err = ParseCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	before := CompileCount()
	set2, err := Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if delta := CompileCount() - before; delta != 0 {
		t.Fatalf("resumed run compiled %d columns, want 0", delta)
	}
	if got, err := set2.JSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed export differs from original (err %v)", err)
	}

	// Keep the first of the two rows only.
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	doc["cells"] = doc["cells"].([]any)[:1]
	first, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	g3 := g
	if g3.Resume, err = ParseCheckpoint(first); err != nil {
		t.Fatal(err)
	}
	set3, err := Run(context.Background(), g3)
	if err != nil {
		t.Fatal(err)
	}
	if c := set3.At(0, 0, 0); c.Data == nil {
		t.Fatal("first cell of the doubled identity was not resumed")
	}
	if c := set3.At(0, 1, 0); c.Result == nil {
		t.Fatal("second cell of the doubled identity was not recomputed")
	}
	if got, err := set3.JSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("partially-resumed export differs from original (err %v)", err)
	}
}

// TestCheckpointSkipsErrorRows: rows that recorded an error must be
// recomputed, not resumed.
func TestCheckpointSkipsErrorRows(t *testing.T) {
	doc := []byte(`{"scenarios":["s"],"policies":["p"],"seed_offsets":[0],
		"cells":[{"scenario":"s","policy":"p","seed":1,"error":"boom"},
		         {"scenario":"s","policy":"p","seed":2,"cost_eur":1}]}`)
	ck, err := ParseCheckpoint(doc)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Loaded != 1 || ck.Skipped != 1 {
		t.Fatalf("loaded=%d skipped=%d, want 1/1", ck.Loaded, ck.Skipped)
	}
	if row := ck.take("s", "p", 1); row != nil {
		t.Fatalf("error row was resumable")
	}
	if row := ck.take("s", "p", 2); row == nil {
		t.Fatalf("good row was not resumable")
	}
	if row := ck.take("s", "p", 2); row != nil {
		t.Fatalf("row resumed twice")
	}
}

// TestSpecFingerprint: stable across calls, sensitive to every identity
// input, and undefined for injected workloads.
func TestSpecFingerprint(t *testing.T) {
	spec, err := config.Preset("paper-geo3dc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := SpecFingerprint(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecFingerprint(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fingerprint not stable: %q vs %q", a, b)
	}
	c, err := SpecFingerprint(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("fingerprint ignores the seed")
	}
	spec2 := spec
	spec2.Scale = 0.123
	d, err := SpecFingerprint(spec2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatalf("fingerprint ignores the spec")
	}

	spec3 := spec
	spec3.Workload = struct{ trace.Source }{}
	if _, err := SpecFingerprint(spec3, 7); err == nil {
		t.Fatalf("fingerprint accepted an injected workload")
	}
}

// TestColumnFingerprintMatchesSpec: CompileColumn stamps the column with
// the spec fingerprint.
func TestColumnFingerprintMatchesSpec(t *testing.T) {
	spec, err := config.Preset("paper-geo3dc")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Horizon = timeutil.Hours(2)
	spec.FineStepSec = 300
	want, err := SpecFingerprint(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	col, err := CompileColumn(spec, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if col.Fingerprint() != want {
		t.Fatalf("column fingerprint %q != spec fingerprint %q", col.Fingerprint(), want)
	}
}

// TestLoadCheckpointRejectsMalformed: a damaged resume source fails to load
// instead of resuming an empty or partial grid.
func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	good := []byte(`{"cells":[{"scenario":"s","policy":"p","seed":1,"cost_eur":1}]}`)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"empty", nil},
		{"not json", []byte("scenario,policy,seed\ns,p,1\n")},
		{"cells not an array", []byte(`{"cells":{"scenario":"s","policy":"p","seed":1}}`)},
		{"cells a string", []byte(`{"cells":"s"}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if ck, err := LoadCheckpoint(path); err == nil {
				t.Fatalf("LoadCheckpoint accepted it: loaded=%d skipped=%d", ck.Loaded, ck.Skipped)
			}
		})
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadCheckpoint accepted a missing file")
	}
	// The intact document still loads, so the cases above fail for their
	// damage alone.
	if _, err := ParseCheckpoint(good); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseCheckpoint: parsing an arbitrary document never panics, every
// parsed row is counted exactly once as loaded or skipped, and draining the
// checkpoint never yields a row that recorded an error.
func FuzzParseCheckpoint(f *testing.F) {
	f.Add([]byte(`{"cells":[{"scenario":"s","policy":"p","seed":1,"error":"boom"},{"scenario":"s","policy":"p","seed":1,"cost_eur":1}]}`))
	f.Add([]byte(`{"scenarios":["s"],"cells":[{"scenario":"s","policy":"p","seed":2},{"scenario":"s","policy":"p","seed":2}]}`))
	f.Add([]byte(`{"cells":[{"scenario":"s","policy":"p","seed":3,"epochs":[{"epoch":0}]}`))
	f.Add([]byte(`{"cells":null}`))
	f.Add([]byte(`{"cells":{}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		var doc struct {
			Cells []CellData `json:"cells"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("ParseCheckpoint accepted a document json rejects: %v", err)
		}
		if ck.Loaded+ck.Skipped != len(doc.Cells) {
			t.Fatalf("loaded %d + skipped %d != %d parsed rows", ck.Loaded, ck.Skipped, len(doc.Cells))
		}
		taken := 0
		for _, c := range doc.Cells {
			for row := ck.take(c.Scenario, c.Policy, c.Seed); row != nil; row = ck.take(c.Scenario, c.Policy, c.Seed) {
				if row.Error != "" {
					t.Fatalf("resumed an error row: %+v", *row)
				}
				taken++
			}
		}
		if taken != ck.Loaded {
			t.Fatalf("drained %d rows, want the %d loaded", taken, ck.Loaded)
		}
	})
}
