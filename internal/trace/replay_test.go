package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

func TestReplayRoundTrip(t *testing.T) {
	w := New(Config{Seed: 5, Horizon: timeutil.Hours(6), InitialVMs: 40})
	dir := t.TempDir()
	const samples = 12
	if err := ExportReplay(w, dir, 6, samples); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots() < 6 {
		t.Fatalf("replay slots = %d, want >= 6", r.Slots())
	}
	// Active sets match per slot.
	for sl := timeutil.Slot(0); sl < 6; sl++ {
		a := w.ActiveVMs(sl)
		b := r.ActiveVMs(sl)
		if len(a) != len(b) {
			t.Fatalf("slot %d: active %d vs %d", sl, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d: active sets differ at %d", sl, i)
			}
		}
	}
	// Profiles match exactly at the stored resolution.
	for _, id := range w.ActiveVMs(2) {
		want := w.SlotProfile(id, 2, samples)
		got := r.SlotProfile(id, 2, samples)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-3 { // CSV stores 4 decimals
				t.Fatalf("vm %d sample %d: %v vs %v", id, i, want[i], got[i])
			}
		}
	}
	// Volumes match in count and total.
	for sl := timeutil.Slot(0); sl < 6; sl++ {
		wv := w.Volumes(sl)
		rv := r.Volumes(sl)
		if len(wv) != len(rv) {
			t.Fatalf("slot %d: volumes %d vs %d", sl, len(wv), len(rv))
		}
		var sumW, sumR units.DataSize
		for i := range wv {
			sumW += wv[i].Vol
			sumR += rv[i].Vol
		}
		if math.Abs(float64(sumW-sumR)) > float64(len(wv)) { // 1 byte rounding per row
			t.Fatalf("slot %d: volume totals %v vs %v", sl, sumW, sumR)
		}
	}
	// Image sizes survive.
	if r.Image(0) != w.Image(0) {
		t.Fatalf("image = %v, want %v", r.Image(0), w.Image(0))
	}
}

func TestReplayUtilPiecewiseConstant(t *testing.T) {
	w := New(Config{Seed: 7, Horizon: timeutil.Hours(2), InitialVMs: 10})
	dir := t.TempDir()
	if err := ExportReplay(w, dir, 2, 6); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	// With 6 samples per slot, steps within one sixth of a slot share a
	// value.
	stepsPerSample := timeutil.Step(timeutil.StepsPerSlot / 6)
	u0 := r.Util(0, 0)
	u1 := r.Util(0, stepsPerSample-1)
	if u0 != u1 {
		t.Fatalf("samples not held constant: %v vs %v", u0, u1)
	}
	// The profile resample must agree with Util.
	prof := r.SlotProfile(0, 0, 6)
	if prof[0] != u0 {
		t.Fatalf("profile/util disagree: %v vs %v", prof[0], u0)
	}
}

func TestReplayPlannedVolumesFilterByLife(t *testing.T) {
	w := New(Config{Seed: 11, Horizon: timeutil.Hours(8), InitialVMs: 60, MeanLifeSlots: 3})
	dir := t.TempDir()
	if err := ExportReplay(w, dir, 8, 6); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.PlannedVolumes(2, 6) {
		if !r.aliveAt(e.From, 6) || !r.aliveAt(e.To, 6) {
			t.Fatalf("planned volume references VM dead at act slot: %+v", e)
		}
	}
}

func TestReplayOutOfRangeQueries(t *testing.T) {
	w := New(Config{Seed: 13, Horizon: timeutil.Hours(2), InitialVMs: 5})
	dir := t.TempDir()
	if err := ExportReplay(w, dir, 2, 4); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveVMs(-1) != nil || r.ActiveVMs(9999) != nil {
		t.Fatal("out-of-range active not nil")
	}
	if r.Util(0, timeutil.Step(1e7)) != 0 {
		t.Fatal("out-of-range util not 0")
	}
	if got := r.SlotProfile(0, 9999, 4); got[0] != 0 {
		t.Fatal("out-of-range profile not zero")
	}
	if r.Volumes(9999) != nil {
		t.Fatal("out-of-range volumes not nil")
	}
}

func TestLoadReplayRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("vms.csv", "id,arrival_slot,depart_slot,image_gb\nnot-a-number,0,1,2\n")
	write("profiles.csv", "id,slot,s0\n0,0,0.5\n")
	write("volumes.csv", "slot,from,to,bytes\n")
	if _, err := LoadReplay(dir); err == nil {
		t.Fatal("garbage vms.csv accepted")
	}

	write("vms.csv", "id,arrival_slot,depart_slot,image_gb\n0,5,1,2\n")
	if _, err := LoadReplay(dir); err == nil {
		t.Fatal("depart<arrival accepted")
	}

	write("vms.csv", "id,arrival_slot,depart_slot,image_gb\n0,0,2,2\n")
	write("profiles.csv", "id,slot,s0\n0,zero,0.5\n")
	if _, err := LoadReplay(dir); err == nil {
		t.Fatal("garbage profiles.csv accepted")
	}
}

func TestLoadReplayMissingDir(t *testing.T) {
	if _, err := LoadReplay(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestExportReplayClampsSlots(t *testing.T) {
	w := New(Config{Seed: 17, Horizon: timeutil.Hours(3), InitialVMs: 5})
	dir := t.TempDir()
	// Ask for more slots than the workload has: clamped, not an error.
	if err := ExportReplay(w, dir, 100, 4); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots() > 3 {
		t.Fatalf("exported %d slots from a 3-slot workload", r.Slots())
	}
}

// gappedSource is a hand-built Source whose VM 0 goes idle mid-lifetime
// (active over [0,2) and [4,6)) — the shape that used to round-trip
// through ExportReplay/LoadReplay inflated to the full [0,6) span.
type gappedSource struct{}

func (gappedSource) NumVMs() int              { return 2 }
func (gappedSource) Slots() timeutil.Slot     { return 6 }
func (gappedSource) Image(int) units.DataSize { return 2 * units.Gigabyte }

func (gappedSource) ActiveVMs(sl timeutil.Slot) []int {
	switch {
	case sl < 0 || sl >= 6:
		return nil
	case sl >= 2 && sl < 4:
		return []int{1} // VM 0's gap
	case sl >= 1:
		return []int{0, 1}
	default:
		return []int{0}
	}
}

func (g gappedSource) Util(id int, st timeutil.Step) float64 {
	return 0.1 + 0.05*float64(id) + 0.01*float64(st.Slot())
}

func (g gappedSource) SlotProfile(id int, sl timeutil.Slot, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Util(id, sl.Start())
	}
	return out
}

func (gappedSource) Volumes(sl timeutil.Slot) []VolumeEntry {
	if sl == 1 || sl == 5 {
		return []VolumeEntry{{From: 0, To: 1, Vol: 3 * units.Megabyte}}
	}
	return nil
}

func (g gappedSource) PlannedVolumes(obs, act timeutil.Slot) []VolumeEntry {
	return g.Volumes(obs)
}

// TestReplayRoundTripProperty is the pipeline equivalence property: for
// synthetic presets x seeds plus the gapped hand-built source, an
// Export -> Load round trip must reproduce the exact active sets, the
// stored-resolution profiles (to CSV precision), the volume lists and the
// image sizes. In particular gapped lifetimes must not inflate: the
// pre-segments.csv exporter wrote depart = last+1, resurrecting VMs
// through their idle slots.
func TestReplayRoundTripProperty(t *testing.T) {
	sources := []struct {
		name string
		src  Source
	}{
		{"gapped", gappedSource{}},
	}
	for _, preset := range []Config{
		{Horizon: timeutil.Hours(8), InitialVMs: 30, MeanLifeSlots: 3},
		{Horizon: timeutil.Hours(6), InitialVMs: 20, ClassWeights: []float64{1, 0, 0, 0}},
	} {
		for _, seed := range []uint64{1, 2} {
			cfg := preset
			cfg.Seed = seed
			sources = append(sources, struct {
				name string
				src  Source
			}{fmt.Sprintf("synthetic-%dvm-seed%d", cfg.InitialVMs, seed), New(cfg)})
		}
	}
	const samples = 8
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := ExportReplay(tc.src, dir, tc.src.Slots(), samples); err != nil {
				t.Fatal(err)
			}
			r, err := LoadReplay(dir)
			if err != nil {
				t.Fatal(err)
			}
			for sl := timeutil.Slot(0); sl < tc.src.Slots(); sl++ {
				a, b := tc.src.ActiveVMs(sl), r.ActiveVMs(sl)
				if len(a) != len(b) {
					t.Fatalf("slot %d: active %v vs %v", sl, a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("slot %d: active %v vs %v", sl, a, b)
					}
				}
				for _, id := range a {
					want := tc.src.SlotProfile(id, sl, samples)
					got := r.SlotProfile(id, sl, samples)
					for i := range want {
						if math.Abs(want[i]-got[i]) > 1e-3 { // CSV keeps 4 decimals
							t.Fatalf("vm %d slot %d sample %d: %v vs %v", id, sl, i, want[i], got[i])
						}
					}
					if math.Abs(r.Image(id).GB()-tc.src.Image(id).GB()) > 1e-3 {
						t.Fatalf("vm %d image %v vs %v", id, r.Image(id), tc.src.Image(id))
					}
				}
				wv, rv := tc.src.Volumes(sl), r.Volumes(sl)
				if len(wv) != len(rv) {
					t.Fatalf("slot %d: %d vs %d volume entries", sl, len(wv), len(rv))
				}
				for i := range wv {
					if wv[i].From != rv[i].From || wv[i].To != rv[i].To ||
						math.Abs(wv[i].Vol.Bytes()-rv[i].Vol.Bytes()) > 1 {
						t.Fatalf("slot %d entry %d: %+v vs %+v", sl, i, wv[i], rv[i])
					}
				}
			}
		})
	}
}

// TestExportReplayWritesSegments pins the on-disk shape of the gap fix:
// a gapped source gets a segments.csv, a contiguous one keeps the
// three-file layout.
func TestExportReplayWritesSegments(t *testing.T) {
	dir := t.TempDir()
	if err := ExportReplay(gappedSource{}, dir, 6, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "segments.csv")); err != nil {
		t.Fatalf("gapped export should write segments.csv: %v", err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The gap slots must not list VM 0.
	for _, sl := range []timeutil.Slot{2, 3} {
		for _, id := range r.ActiveVMs(sl) {
			if id == 0 {
				t.Fatalf("slot %d resurrects VM 0 through its gap", sl)
			}
		}
	}

	contiguous := t.TempDir()
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(3), InitialVMs: 10})
	if err := ExportReplay(w, contiguous, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(contiguous, "segments.csv")); !os.IsNotExist(err) {
		t.Fatalf("contiguous export should not write segments.csv (stat err: %v)", err)
	}
}

// TestExportReplayAtomic blocks the temp path of each file of an export in
// turn with a directory: the export fails and leaves the previous export's
// files byte for byte, with no temp file behind. Unblocked, it replaces
// them and drops the earlier export's segments.csv, which would re-gap the
// new, contiguous lifetimes.
func TestExportReplayAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := ExportReplay(gappedSource{}, dir, 6, 4); err != nil {
		t.Fatal(err)
	}
	names := []string{"vms.csv", "segments.csv", "profiles.csv", "volumes.csv"}
	before := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		before[name] = b
	}
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(3), InitialVMs: 10})
	for _, blocked := range []string{"vms.csv", "profiles.csv", "volumes.csv"} {
		tmp := filepath.Join(dir, blocked+".tmp")
		if err := os.MkdirAll(filepath.Join(tmp, "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ExportReplay(w, dir, 3, 4); err == nil {
			t.Fatalf("export with %s blocked succeeded", tmp)
		}
		for _, name := range names {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, before[name]) {
				t.Fatalf("%s blocked: %s changed (err %v)", blocked, name, err)
			}
			if name == blocked {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, name+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("%s blocked: %s.tmp left behind (stat err %v)", blocked, name, err)
			}
		}
		if err := os.RemoveAll(tmp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ExportReplay(w, dir, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "segments.csv")); !os.IsNotExist(err) {
		t.Fatalf("a contiguous export over a gapped one kept segments.csv (stat err %v)", err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for sl := timeutil.Slot(0); sl < 3; sl++ {
		if got, want := r.ActiveVMs(sl), w.ActiveVMs(sl); !slices.Equal(got, want) {
			t.Fatalf("slot %d: replay active %v, source %v", sl, got, want)
		}
	}
}

// TestExportReplayRenameFailure pins what a failed rename leaves: the
// export reports it, the files renamed before it are the new ones, the
// ones after it are the previous ones, and no temp file is left behind.
// profiles.csv is a non-empty directory, so its rename fails after
// vms.csv's succeeded.
func TestExportReplayRenameFailure(t *testing.T) {
	dir := t.TempDir()
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(3), InitialVMs: 10})
	want := t.TempDir()
	if err := ExportReplay(w, want, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "profiles.csv", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	prev := []byte("slot,from,to,bytes\n")
	if err := os.WriteFile(filepath.Join(dir, "volumes.csv"), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ExportReplay(w, dir, 3, 4); err == nil {
		t.Fatal("export over a profiles.csv directory succeeded")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "vms.csv")); err != nil {
		t.Fatal(err)
	} else if exp, _ := os.ReadFile(filepath.Join(want, "vms.csv")); !bytes.Equal(got, exp) {
		t.Fatal("vms.csv, renamed before the failure, is not the new file")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "volumes.csv")); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("volumes.csv, after the failure, changed (err %v)", err)
	}
	for _, name := range []string{"vms.csv", "profiles.csv", "volumes.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name+".tmp")); !os.IsNotExist(err) {
			t.Fatalf("%s.tmp left behind (stat err %v)", name, err)
		}
	}
}

// TestLoadReplayStrictness covers the loader's hard-error contract: rows
// that the pre-fix loader silently dropped or last-win-overwrote are now
// load failures.
func TestLoadReplayStrictness(t *testing.T) {
	base := map[string]string{
		"vms.csv":      "id,arrival_slot,depart_slot,image_gb\n0,0,2,2.000\n1,0,3,4.000\n",
		"profiles.csv": "id,slot,s0,s1\n0,0,0.2000,0.4000\n1,0,0.1000,0.2000\n",
		"volumes.csv":  "slot,from,to,bytes\n0,0,1,1000\n",
	}
	cases := []struct {
		name      string
		file      string
		content   string
		wantInErr string
	}{
		{"duplicate VM id", "vms.csv",
			"id,arrival_slot,depart_slot,image_gb\n0,0,2,2.000\n0,1,3,4.000\n",
			"duplicate VM id"},
		{"ragged profile row", "profiles.csv",
			"id,slot,s0,s1\n0,0,0.2000,0.4000\n1,0,0.1000\n",
			"ragged"},
		{"out-of-horizon volume", "volumes.csv",
			"slot,from,to,bytes\n99,0,1,1000\n",
			"outside"},
		{"negative-slot volume", "volumes.csv",
			"slot,from,to,bytes\n-1,0,1,1000\n",
			"outside"},
		{"segment for undeclared VM", "segments.csv",
			"id,start_slot,end_slot\n7,0,1\n",
			"undeclared"},
		{"segment outside lifetime", "segments.csv",
			"id,start_slot,end_slot\n0,0,5\n",
			"lifetime"},
		{"overlapping segments", "segments.csv",
			"id,start_slot,end_slot\n1,0,2\n1,1,3\n",
			"overlapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range base {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadReplay(dir)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantInErr)
			}
		})
	}

	// The base triple itself must load: the strictness is in the variants.
	dir := t.TempDir()
	for name, content := range base {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadReplay(dir); err != nil {
		t.Fatalf("base replay rejected: %v", err)
	}
}

// TestLoadReplayOverlapErrorDeterministic: with two VMs whose segments
// overlap — the higher id listed first — every load fails with the same
// message, naming the lower id.
func TestLoadReplayOverlapErrorDeterministic(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"vms.csv":      "id,arrival_slot,depart_slot,image_gb\n0,0,4,1.000\n1,0,4,1.000\n2,0,4,1.000\n3,0,4,1.000\n",
		"profiles.csv": "id,slot,s0\n0,0,0.2000\n1,0,0.2000\n2,0,0.2000\n3,0,0.2000\n",
		"volumes.csv":  "slot,from,to,bytes\n",
		"segments.csv": "id,start_slot,end_slot\n3,0,2\n3,1,3\n1,0,2\n1,1,4\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const want = "trace: segments.csv: overlapping segments for VM 1"
	for i := 0; i < 50; i++ {
		_, err := LoadReplay(dir)
		if err == nil || err.Error() != want {
			t.Fatalf("load %d: error %v, want %q", i, err, want)
		}
	}
}
