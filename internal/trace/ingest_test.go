package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geovmp/internal/timeutil"
)

func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIngestClusterAzureStyle(t *testing.T) {
	dir := t.TempDir()
	// Two VMs; timestamps in trace-epoch seconds, CPU in percent. VM a
	// spans two slots with a reading gap, VM b has no readings at all.
	vms := writeCSV(t, dir, "vms.csv",
		"vmid,vmcreated,vmdeleted\na,100,7300\nb,3700,10900\n")
	cpu := writeCSV(t, dir, "cpu.csv",
		"timestamp,vmid,avgcpu\n150,a,40\n1900,a,60\n3650,a,55\n")
	r, err := IngestCluster(vms, cpu, IngestOptions{Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVMs() != 2 || r.Slots() != 4 {
		t.Fatalf("shape = %d VMs, %d slots", r.NumVMs(), r.Slots())
	}
	// VM a is active over slots [0,3), b over [1,4).
	if got := r.ActiveVMs(0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("slot 0 active = %v", got)
	}
	if got := r.ActiveVMs(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("slot 1 active = %v", got)
	}
	if got := r.ActiveVMs(3); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("slot 3 active = %v", got)
	}
	// Slot 0 of VM a: readings 40% in bin 0, 60% in bin 2, the gap bins
	// carry the previous value forward.
	if got, want := r.SlotProfile(0, 0, 4), []float64{0.4, 0.4, 0.6, 0.6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("vm a slot 0 profile = %v, want %v", got, want)
	}
	// Slot 1: one reading (55%) covers the slot, rest carried.
	if got := r.SlotProfile(0, 1, 4); got[0] != 0.55 || got[3] != 0.55 {
		t.Fatalf("vm a slot 1 profile = %v", got)
	}
	// VM b has no readings: zero demand, not an error.
	if got := r.SlotProfile(1, 2, 4); got[0] != 0 {
		t.Fatalf("readingless VM profile = %v", got)
	}
}

func TestIngestClusterGoogleStyle(t *testing.T) {
	dir := t.TempDir()
	// Google-style column names, CPU already a [0,1] rate.
	vms := writeCSV(t, dir, "vms.csv",
		"vm_id,start_time,end_time\nj1,0,3600\n")
	cpu := writeCSV(t, dir, "cpu.csv",
		"time,vm_id,cpu_rate\n0,j1,0.25\n1800,j1,0.75\n")
	r, err := IngestCluster(vms, cpu, IngestOptions{Samples: 2, CPUScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.SlotProfile(0, 0, 2), []float64{0.25, 0.75}; !reflect.DeepEqual(got, want) {
		t.Fatalf("profile = %v, want %v", got, want)
	}
}

func TestIngestClusterBackwardFill(t *testing.T) {
	dir := t.TempDir()
	// First reading lands mid-lifetime: earlier bins take its value
	// backward rather than reading zero.
	vms := writeCSV(t, dir, "vms.csv", "vmid,vmcreated,vmdeleted\na,0,7200\n")
	cpu := writeCSV(t, dir, "cpu.csv", "timestamp,vmid,avgcpu\n5400,a,80\n")
	r, err := IngestCluster(vms, cpu, IngestOptions{Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SlotProfile(0, 0, 2); got[0] != 0.8 || got[1] != 0.8 {
		t.Fatalf("slot 0 profile = %v, want backward-filled 0.8s", got)
	}
}

func TestIngestClusterErrors(t *testing.T) {
	dir := t.TempDir()
	goodVMs := "vmid,vmcreated,vmdeleted\na,0,7200\n"
	goodCPU := "timestamp,vmid,avgcpu\n100,a,50\n"
	cases := []struct {
		name, vms, cpu, wantInErr string
	}{
		{"duplicate id", "vmid,vmcreated,vmdeleted\na,0,7200\na,100,3600\n", goodCPU, "duplicate"},
		{"deleted before created", "vmid,vmcreated,vmdeleted\na,7200,100\n", goodCPU, "before created"},
		{"missing lifetime columns", "foo,bar\n1,2\n", goodCPU, "lacks"},
		{"unknown reading id", goodVMs, "timestamp,vmid,avgcpu\n100,zzz,50\n", "unknown"},
		{"reading outside lifetime", goodVMs, "timestamp,vmid,avgcpu\n99999,a,50\n", "outside"},
		{"missing cpu columns", goodVMs, "a,b\n1,2\n", "lacks"},
		{"junk cpu number", goodVMs, "timestamp,vmid,avgcpu\n100,a,fifty\n", "invalid syntax"},
		{"short lifetime row", "vmid,vmcreated,vmdeleted\na,0\n", goodCPU, "columns"},
		{"short reading row", goodVMs, "timestamp,vmid,avgcpu\n100,a\n", "columns"},
		{"NaN created", "vmid,vmcreated,vmdeleted\na,NaN,3600\n", goodCPU, `VM "a": created NaN is not finite`},
		{"-Inf created", "vmid,vmcreated,vmdeleted\na,-Inf,5\n", goodCPU, `VM "a": created -Inf is not finite`},
		{"Inf deleted", "vmid,vmcreated,vmdeleted\na,0,Inf\n", goodCPU, `VM "a": deleted +Inf is not finite`},
		{"NaN reading", goodVMs, "timestamp,vmid,avgcpu\n100,a,NaN\n", `VM "a": reading NaN is not finite and non-negative`},
		{"negative reading", goodVMs, "timestamp,vmid,avgcpu\n100,a,-1e308\n", `VM "a": reading -1e+308 is not finite and non-negative`},
		{"reading before the epoch", "vmid,vmcreated,vmdeleted\na,3600,7200\n", "timestamp,vmid,avgcpu\n1,a,50\n", "outside its lifetime"},
		{"lifetime beyond float range", "vmid,vmcreated,vmdeleted\na,-1e308,1e308\n", "timestamp,vmid,avgcpu\n", "beyond the"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vmPath := writeCSV(t, dir, filepath.Join(strings.ReplaceAll(tc.name, " ", "-")+"-vms.csv"), tc.vms)
			cpuPath := writeCSV(t, dir, strings.ReplaceAll(tc.name, " ", "-")+"-cpu.csv", tc.cpu)
			_, err := IngestCluster(vmPath, cpuPath, IngestOptions{})
			if err == nil {
				t.Fatalf("case %d (%s) accepted", i, tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantInErr)
			}
		})
	}
}

func TestIngestClusterBoundsEnforced(t *testing.T) {
	dir := t.TempDir()
	vms := writeCSV(t, dir, "vms.csv", "vmid,vmcreated,vmdeleted\na,0,7200\nb,0,7200\n")
	cpu := writeCSV(t, dir, "cpu.csv", "timestamp,vmid,avgcpu\n")
	if _, err := IngestCluster(vms, cpu, IngestOptions{MaxVMs: 1}); err == nil {
		t.Fatal("fleet over MaxVMs accepted")
	}
	long := writeCSV(t, dir, "long.csv", "vmid,vmcreated,vmdeleted\na,0,720000\n")
	if _, err := IngestCluster(long, cpu, IngestOptions{MaxSlots: 10}); err == nil {
		t.Fatal("horizon over MaxSlots accepted")
	}
}

func TestFitTemplatesDeterministicAndNormalized(t *testing.T) {
	w := New(Config{Seed: 6, Horizon: timeutil.Hours(24), InitialVMs: 40})
	a := FitTemplates(w, 3, 12)
	b := FitTemplates(New(Config{Seed: 6, Horizon: timeutil.Hours(24), InitialVMs: 40}), 3, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("template fit is not deterministic")
	}
	if len(a) == 0 || len(a) > 3 {
		t.Fatalf("fitted %d templates", len(a))
	}
	var wsum float64
	for i, tmpl := range a {
		wsum += tmpl.Weight
		if tmpl.Mean < 0 || tmpl.Mean > 1 || tmpl.Amp < 0 {
			t.Fatalf("template %d out of range: %+v", i, tmpl)
		}
		if tmpl.PeakHour < 0 || tmpl.PeakHour >= 24 {
			t.Fatalf("template %d peak hour %v", i, tmpl.PeakHour)
		}
		if i > 0 && a[i-1].Weight < tmpl.Weight {
			t.Fatal("templates not ordered by descending weight")
		}
		if tmpl.Name == "" {
			t.Fatal("template missing a name")
		}
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Fatalf("weights sum to %v", wsum)
	}
	// k larger than the fleet clamps instead of fabricating clusters.
	small := New(Config{Seed: 1, Horizon: timeutil.Hours(4), InitialVMs: 2})
	if ts := FitTemplates(small, 50, 12); len(ts) > small.NumVMs() {
		t.Fatalf("fitted %d templates from %d VMs", len(ts), small.NumVMs())
	}
}

func TestTemplateDrivenGenerationDeterministic(t *testing.T) {
	ts := []UsageTemplate{
		{Name: "web", Class: ClassWebSearch, Weight: 0.7, Mean: 0.4, Amp: 0.2,
			PeakHour: 14, FastAmp: 0.08, SlowAmp: 0.05, DayVar: 0.05},
		{Name: "hpc", Class: ClassHPC, Weight: 0.3, Mean: 0.7, Amp: 0.02,
			PeakHour: 2, FastAmp: 0.01, SlowAmp: 0.02},
	}
	cfg := Config{Seed: 8, Horizon: timeutil.Hours(12), InitialVMs: 30, Templates: ts}
	a, b := New(cfg), New(cfg)
	if a.NumVMs() == 0 {
		t.Fatal("template-driven generator made no VMs")
	}
	for id := 0; id < a.NumVMs(); id++ {
		for _, st := range []timeutil.Step{0, 500, 5000} {
			if a.Util(id, st) != b.Util(id, st) {
				t.Fatalf("template-driven generation not deterministic at vm %d step %d", id, st)
			}
			if u := a.Util(id, st); u < 0 || u > 1.2 {
				t.Fatalf("vm %d util %v out of range", id, u)
			}
		}
		// Every VM's class must come from the template set.
		c := a.VM(id).Class
		if c != ClassWebSearch && c != ClassHPC {
			t.Fatalf("vm %d drew class %v outside the template set", id, c)
		}
	}

	// An empty template list keeps the built-in classes byte-identical.
	plain := Config{Seed: 8, Horizon: timeutil.Hours(12), InitialVMs: 30}
	p, q := New(plain), New(plain)
	for id := 0; id < min(p.NumVMs(), q.NumVMs()); id++ {
		if p.Util(id, 100) != q.Util(id, 100) {
			t.Fatal("baseline generation not deterministic")
		}
	}
}
