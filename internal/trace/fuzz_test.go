package trace

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"geovmp/internal/timeutil"
)

// Seed corpus: a consistent three-file replay, and variants with the
// corruption classes the parser must reject cleanly (negative windows,
// out-of-range ids, absurd slots, junk numbers).
const (
	fuzzVMs      = "id,arrival_slot,depart_slot,image_gb\n0,0,3,2.000\n1,1,4,4.000\n"
	fuzzProfiles = "id,slot,s0,s1\n0,0,0.2000,0.4000\n0,1,0.3000,0.5000\n1,1,0.1000,0.2000\n"
	fuzzVolumes  = "slot,from,to,bytes\n0,0,1,1000000\n1,1,0,2000000\n"
)

// FuzzLoadReplay feeds arbitrary CSV triples through the replay parser:
// it must either return an error or a Replay whose accessors are safe over
// the whole declared horizon — never panic, never balloon memory from a
// single absurd row. Successful loads are additionally round-tripped
// through Compile, which consumes every Source method.
func FuzzLoadReplay(f *testing.F) {
	f.Add(fuzzVMs, fuzzProfiles, fuzzVolumes)
	f.Add("id,arrival_slot,depart_slot,image_gb\n0,-2,-1,2.000\n", fuzzProfiles, fuzzVolumes)
	f.Add("id,arrival_slot,depart_slot,image_gb\n0,0,99999999,2.000\n", "id,slot,s0\n0,99999999,0.5\n", "slot,from,to,bytes\n-1,0,0,1\n")
	f.Add("id,arrival_slot,depart_slot,image_gb\n7,0,3,nan\n", "id,slot,s0\n7,0,inf\n", "slot,from,to,bytes\n0,7,9,xyz\n")
	f.Add("id,arrival_slot,depart_slot,image_gb\n999999999999,0,3,1.0\n", fuzzProfiles, fuzzVolumes)
	// The loader's strict-rejection classes: duplicate VM ids, ragged
	// profile rows, and volume rows outside the declared horizon.
	f.Add("id,arrival_slot,depart_slot,image_gb\n0,0,3,2.000\n0,1,4,4.000\n", fuzzProfiles, fuzzVolumes)
	f.Add(fuzzVMs, "id,slot,s0,s1\n0,0,0.2000,0.4000\n1,1,0.1000\n", fuzzVolumes)
	f.Add(fuzzVMs, fuzzProfiles, "slot,from,to,bytes\n4096,0,1,1000000\n")
	f.Add("", "", "")
	f.Fuzz(func(t *testing.T, vms, profiles, volumes string) {
		if len(vms)+len(profiles)+len(volumes) > 1<<14 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		for _, file := range []struct{ name, data string }{
			{"vms.csv", vms}, {"profiles.csv", profiles}, {"volumes.csv", volumes},
		} {
			if err := os.WriteFile(filepath.Join(dir, file.name), []byte(file.data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := LoadReplay(dir)
		if err != nil {
			return // rejected cleanly
		}
		slots := r.Slots()
		if slots > 64 {
			slots = 64
		}
		for sl := timeutil.Slot(0); sl < slots; sl++ {
			for _, id := range r.ActiveVMs(sl) {
				_ = r.Util(id, sl.Start())
				_ = r.SlotProfile(id, sl, 4)
				_ = r.Image(id)
			}
			_ = r.Volumes(sl)
			_ = r.PlannedVolumes(obsSlot(sl), sl)
		}
		// Out-of-range queries stay safe.
		_ = r.ActiveVMs(-1)
		_ = r.Volumes(r.Slots() + 10)
		_ = r.SlotProfile(0, -1, 4)
		if r.Slots() <= 64 && r.NumVMs() <= 256 {
			c := Compile(r, CompileOptions{Samples: 4, FineStepSec: 900})
			for sl := timeutil.Slot(0); sl < c.Slots(); sl++ {
				for _, id := range c.ActiveVMs(sl) {
					row := c.ProfileRow(id, sl)
					if row == nil {
						continue
					}
					want := r.SlotProfile(id, sl, 4)
					for i := range row {
						// NaN from junk CSV numbers is preserved, not equal.
						if row[i] != want[i] && !(row[i] != row[i] && want[i] != want[i]) {
							t.Fatalf("compiled profile diverges at vm %d slot %d: %v vs %v", id, sl, row, want)
						}
					}
				}
			}
		}
	})
}

// FuzzIngestCluster feeds arbitrary bytes through IngestCluster as the
// lifetime and utilization CSVs: it must either return an error or a
// Replay in which every VM departs after it arrives and every profile
// sample is finite and in [0, 1] — never panic.
func FuzzIngestCluster(f *testing.F) {
	const vms, cpu = "vmid,vmcreated,vmdeleted\na,100,7300\nb,3700,10900\n", "timestamp,vmid,avgcpu\n150,a,40\n1900,a,60\n3650,b,55\n"
	f.Add(vms, cpu)
	for _, tok := range []string{"NaN", "Inf", "-Inf", "1e309"} {
		f.Add("vmid,vmcreated,vmdeleted\na,"+tok+",3600\n", cpu)
		f.Add("vmid,vmcreated,vmdeleted\na,0,"+tok+"\n", cpu)
		f.Add(vms, "timestamp,vmid,avgcpu\n"+tok+",a,50\n")
		f.Add(vms, "timestamp,vmid,avgcpu\n150,a,"+tok+"\n")
	}
	f.Add("vmid,vmcreated,vmdeleted\na,3600,7200\n", "timestamp,vmid,avgcpu\n1,a,50\n")
	f.Add("vmid,vmcreated,vmdeleted\na,-1e308,1e308\n", "timestamp,vmid,avgcpu\n")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, vms, cpu string) {
		if len(vms)+len(cpu) > 1<<14 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		vmPath, cpuPath := filepath.Join(dir, "vms.csv"), filepath.Join(dir, "cpu.csv")
		for path, data := range map[string]string{vmPath: vms, cpuPath: cpu} {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := IngestCluster(vmPath, cpuPath, IngestOptions{MaxVMs: 1000, MaxSlots: 200})
		if err != nil {
			return // rejected cleanly
		}
		for id, v := range r.vms {
			if v.arrival < 0 || v.arrival >= v.depart {
				t.Fatalf("VM %d lives [%d, %d)", id, v.arrival, v.depart)
			}
			for sl, row := range r.profiles[id] {
				for _, u := range row {
					if !(u >= 0 && u <= 1) {
						t.Fatalf("VM %d slot %d profile %v", id, sl, row)
					}
				}
			}
		}
	})
}

// FuzzFillUtil fills two VMs of one service from one shared diurnal row —
// the service-major fill's contract — over a strided grid at an arbitrary
// start, and a FillSlotProfile of either length class, and pins all of
// them to the per-point oracle bit for bit.
func FuzzFillUtil(f *testing.F) {
	f.Add(uint64(42), uint16(0), uint16(1), int64(0), uint16(720), uint16(1))
	f.Add(uint64(5), uint16(17), uint16(3), int64(16560), uint16(200), uint16(7))
	f.Add(uint64(8), uint16(99), uint16(0), int64(17270), uint16(64), uint16(60))
	f.Add(uint64(1<<63), uint16(65535), uint16(65535), int64(-1), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, a, b uint16, start int64, n, stride uint16) {
		w := New(Config{Seed: seed, Horizon: timeutil.Days(2), InitialVMs: 30})
		vm := w.VM(int(a) % w.NumVMs())
		s := w.services[vm.Service]
		ids := []int{vm.ID, s.Members[int(b)%len(s.Members)]}

		span := int64(timeutil.Days(3).Steps())
		first := timeutil.Step((start%span + span) % span)
		steps := make([]timeutil.Step, int(n)%1024+1)
		for k := range steps {
			steps[k] = first + timeutil.Step(k*(int(stride)%900+1))
		}
		g := NewStepGrid(steps)
		diurnal := make([]float64, g.Len())
		diurnalRow(diurnal, s.PeakHour, &g)
		row := make([]float64, g.Len())
		for _, id := range ids {
			w.fillUtilRow(row, id, &g, diurnal)
			checkRow(t, "shared diurnal row", w, id, g, row)
		}

		sl := first.Slot()
		prof := make([]float64, int(n)%40+1)
		for _, id := range ids {
			w.FillSlotProfile(prof, id, sl)
			for i, u := range prof {
				if want := oracleUtil(w, id, profileStep(sl, i, len(prof))); math.Float64bits(u) != math.Float64bits(want) {
					t.Fatalf("vm %d slot %d profile[%d] = %v, oracle %v", id, sl, i, u, want)
				}
			}
		}
	})
}
