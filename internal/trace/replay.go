package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Replay is a workload loaded from CSV files — the hook for driving the
// simulator with real data-center traces instead of the synthetic
// generator, mirroring the paper's use of sampled production VMs.
//
// The on-disk format (written by ExportReplay and cmd/tracegen -replay):
//
//	vms.csv       id,arrival_slot,depart_slot,image_gb
//	profiles.csv  id,slot,s0,s1,...,s{n-1}   (per-slot utilization samples)
//	volumes.csv   slot,from,to,bytes         (directed inter-VM transfers)
//	segments.csv  id,start_slot,end_slot     (optional activity runs)
//
// Utilization between profile samples is held piecewise constant; slots
// without a profile row read as zero demand. A VM is active over
// [arrival, depart) unless segments.csv lists explicit activity runs for it
// — the export path writes those for VMs with idle slots mid-trace, so a
// gapped lifetime round-trips instead of being inflated to its full span.
//
// Malformed input is a load error, never silent data loss: duplicate VM
// ids, profile rows whose sample count disagrees with the first row, and
// volume rows outside the declared horizon all fail the load.
type Replay struct {
	slots   timeutil.Slot
	samples int
	vms     []replayVM
	active  [][]int
	// profiles[id][slot] -> samples (nil when absent)
	profiles [][][]float64
	// volumes[slot] -> entries
	volumes [][]VolumeEntry
}

type replayVM struct {
	arrival, depart timeutil.Slot
	image           units.DataSize
	// segs lists the VM's activity runs when its lifetime is gapped;
	// nil means contiguous [arrival, depart).
	segs []slotSpan
}

// slotSpan is a half-open activity run [start, end).
type slotSpan struct{ start, end timeutil.Slot }

// NumVMs implements Source.
func (r *Replay) NumVMs() int { return len(r.vms) }

// Slots implements Source.
func (r *Replay) Slots() timeutil.Slot { return r.slots }

// Image implements Source.
func (r *Replay) Image(id int) units.DataSize { return r.vms[id].image }

// ActiveVMs implements Source.
func (r *Replay) ActiveVMs(sl timeutil.Slot) []int {
	if sl < 0 || int(sl) >= len(r.active) {
		return nil
	}
	return r.active[sl]
}

// SlotProfile implements Source, resampling the stored profile to n points.
func (r *Replay) SlotProfile(id int, sl timeutil.Slot, n int) []float64 {
	out := make([]float64, n)
	r.FillSlotProfile(out, id, sl)
	return out
}

// FillSlotProfile is the allocation-free variant of SlotProfile: it
// resamples the stored profile into dst (absent profiles read as zero).
func (r *Replay) FillSlotProfile(dst []float64, id int, sl timeutil.Slot) {
	n := len(dst)
	if id < 0 || id >= len(r.profiles) || sl < 0 || int(sl) >= len(r.profiles[id]) {
		clear(dst)
		return
	}
	prof := r.profiles[id][sl]
	if len(prof) == 0 {
		clear(dst)
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = prof[i*len(prof)/n]
	}
}

// Util implements Source: the stored sample covering the step, held
// constant.
func (r *Replay) Util(id int, st timeutil.Step) float64 {
	sl := st.Slot()
	if id < 0 || id >= len(r.profiles) || sl < 0 || int(sl) >= len(r.profiles[id]) {
		return 0
	}
	prof := r.profiles[id][sl]
	if len(prof) == 0 {
		return 0
	}
	within := int(st - sl.Start())
	idx := within * len(prof) / timeutil.StepsPerSlot
	if idx >= len(prof) {
		idx = len(prof) - 1
	}
	return prof[idx]
}

// Volumes implements Source.
func (r *Replay) Volumes(sl timeutil.Slot) []VolumeEntry {
	if sl < 0 || int(sl) >= len(r.volumes) {
		return nil
	}
	return r.volumes[sl]
}

// PlannedVolumes implements Source: the observed slot's entries restricted
// to VMs alive at the acting slot (a replay has no service topology to
// extrapolate from).
func (r *Replay) PlannedVolumes(obs, act timeutil.Slot) []VolumeEntry {
	vols := r.Volumes(obs)
	out := make([]VolumeEntry, 0, len(vols))
	for _, e := range vols {
		if r.aliveAt(e.From, act) && r.aliveAt(e.To, act) {
			out = append(out, e)
		}
	}
	return out
}

func (r *Replay) aliveAt(id int, sl timeutil.Slot) bool {
	if id < 0 || id >= len(r.vms) {
		return false
	}
	v := r.vms[id]
	if sl < v.arrival || sl >= v.depart {
		return false
	}
	if v.segs == nil {
		return true
	}
	for _, s := range v.segs {
		if sl >= s.start && sl < s.end {
			return true
		}
	}
	return false
}

// ExportReplay writes any Source's first `slots` slots to dir in the replay
// CSV format with `samples` utilization samples per slot. VMs whose
// activity is gapped within the window additionally get their runs written
// to segments.csv, so LoadReplay reconstructs the exact active sets rather
// than the inflated [first, last] span. No file in dir changes until every
// file has been written in full to a temp file beside it, so an export
// that fails while writing leaves the previous files as they were. The
// temp files then replace the previous ones by one rename each, and a
// segments.csv of an earlier, gapped export is removed last: a rename that
// fails, or a crash among these steps, can leave a mix of new and previous
// files, which LoadReplay may accept.
func ExportReplay(src Source, dir string, slots timeutil.Slot, samples int) (err error) {
	if slots > src.Slots() {
		slots = src.Slots()
	}
	if samples <= 0 {
		samples = 12
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Activity runs per VM that appears within the exported window.
	runs := map[int][]slotSpan{}
	for sl := timeutil.Slot(0); sl < slots; sl++ {
		for _, id := range src.ActiveVMs(sl) {
			rs := runs[id]
			if n := len(rs); n > 0 && rs[n-1].end == sl {
				rs[n-1].end = sl + 1
			} else {
				rs = append(rs, slotSpan{sl, sl + 1})
			}
			runs[id] = rs
		}
	}
	ids := make([]int, 0, len(runs))
	gapped := false
	for id, rs := range runs {
		ids = append(ids, id)
		if len(rs) > 1 {
			gapped = true
		}
	}
	sort.Ints(ids)

	// Each file is written to name.tmp and renamed over name once every
	// file has been flushed and closed. A failure removes the temp files
	// not yet renamed; a removal that fails leaves one behind, which the
	// next export truncates.
	var written []string
	defer func() {
		if err != nil {
			for _, name := range written {
				_ = os.Remove(filepath.Join(dir, name+".tmp"))
			}
		}
	}()
	writeCSV := func(name string, rows func(w *csv.Writer)) error {
		f, err := os.Create(filepath.Join(dir, name+".tmp"))
		if err != nil {
			return err
		}
		written = append(written, name)
		w := csv.NewWriter(f)
		rows(w)
		w.Flush()
		return firstErr(w.Error(), f.Close())
	}

	err = writeCSV("vms.csv", func(w *csv.Writer) {
		_ = w.Write([]string{"id", "arrival_slot", "depart_slot", "image_gb"})
		for _, id := range ids {
			rs := runs[id]
			_ = w.Write([]string{
				strconv.Itoa(id),
				strconv.FormatInt(int64(rs[0].start), 10),
				strconv.FormatInt(int64(rs[len(rs)-1].end), 10),
				strconv.FormatFloat(src.Image(id).GB(), 'f', 3, 64),
			})
		}
	})
	if err != nil {
		return err
	}

	// segments.csv — only when some lifetime is gapped, so dirs exported
	// from contiguous sources keep the three-file layout.
	if gapped {
		err = writeCSV("segments.csv", func(w *csv.Writer) {
			_ = w.Write([]string{"id", "start_slot", "end_slot"})
			for _, id := range ids {
				rs := runs[id]
				if len(rs) < 2 {
					continue
				}
				for _, s := range rs {
					_ = w.Write([]string{
						strconv.Itoa(id),
						strconv.FormatInt(int64(s.start), 10),
						strconv.FormatInt(int64(s.end), 10),
					})
				}
			}
		})
		if err != nil {
			return err
		}
	}

	err = writeCSV("profiles.csv", func(w *csv.Writer) {
		header := []string{"id", "slot"}
		for s := 0; s < samples; s++ {
			header = append(header, fmt.Sprintf("s%d", s))
		}
		_ = w.Write(header)
		for sl := timeutil.Slot(0); sl < slots; sl++ {
			for _, id := range src.ActiveVMs(sl) {
				row := []string{strconv.Itoa(id), strconv.FormatInt(int64(sl), 10)}
				for _, u := range src.SlotProfile(id, sl, samples) {
					row = append(row, strconv.FormatFloat(u, 'f', 4, 64))
				}
				_ = w.Write(row)
			}
		}
	})
	if err != nil {
		return err
	}

	err = writeCSV("volumes.csv", func(w *csv.Writer) {
		_ = w.Write([]string{"slot", "from", "to", "bytes"})
		for sl := timeutil.Slot(0); sl < slots; sl++ {
			for _, e := range src.Volumes(sl) {
				_ = w.Write([]string{
					strconv.FormatInt(int64(sl), 10),
					strconv.Itoa(e.From),
					strconv.Itoa(e.To),
					strconv.FormatFloat(e.Vol.Bytes(), 'f', 0, 64),
				})
			}
		}
	})
	if err != nil {
		return err
	}

	for _, name := range written {
		path := filepath.Join(dir, name)
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
	}
	// A segments.csv left by an earlier, gapped export would re-gap these
	// lifetimes on load.
	if !gapped {
		if err := os.Remove(filepath.Join(dir, "segments.csv")); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// maxReplaySlots and maxReplayVMs bound what a replay directory may
// declare (~3.7 years of hourly slots, ~a million VMs): per-VM and
// per-slot tables are sized from the declared values, so an absurd number
// in one CSV row must be a parse error, not a memory blow-up.
const (
	maxReplaySlots = 1 << 15
	maxReplayVMs   = 1 << 20
)

// LoadReplay reads a replay-format directory. Files are streamed row by
// row — no file is materialized whole — so a fleet-scale trace costs only
// its parsed tables.
func LoadReplay(dir string) (*Replay, error) {
	r := &Replay{}

	// vms.csv
	maxID := -1
	type vmRow struct {
		id              int
		arrival, depart timeutil.Slot
		image           units.DataSize
	}
	var vms []vmRow
	seen := map[int]bool{}
	err := forEachCSVRow(filepath.Join(dir, "vms.csv"), skipHeader(4), func(row []string) error {
		id, err1 := strconv.Atoi(row[0])
		arr, err2 := strconv.ParseInt(row[1], 10, 64)
		dep, err3 := strconv.ParseInt(row[2], 10, 64)
		gb, err4 := strconv.ParseFloat(row[3], 64)
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return fmt.Errorf("trace: vms.csv: %w", err)
		}
		if id < 0 || arr < 0 || dep < arr {
			return fmt.Errorf("trace: vms.csv: invalid VM row %v", row)
		}
		if id >= maxReplayVMs {
			return fmt.Errorf("trace: vms.csv: id %d beyond the %d-VM replay bound", id, maxReplayVMs)
		}
		if dep > maxReplaySlots {
			return fmt.Errorf("trace: vms.csv: depart slot %d beyond the %d-slot replay bound", dep, maxReplaySlots)
		}
		if seen[id] {
			return fmt.Errorf("trace: vms.csv: duplicate VM id %d", id)
		}
		seen[id] = true
		vms = append(vms, vmRow{id, timeutil.Slot(arr), timeutil.Slot(dep), units.DataSize(gb * 1e9)})
		if id > maxID {
			maxID = id
		}
		if timeutil.Slot(dep) > r.slots {
			r.slots = timeutil.Slot(dep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.vms = make([]replayVM, maxID+1)
	for _, v := range vms {
		r.vms[v.id] = replayVM{arrival: v.arrival, depart: v.depart, image: v.image}
	}

	// segments.csv (optional) — explicit activity runs for gapped VMs.
	err = forEachCSVRow(filepath.Join(dir, "segments.csv"), skipHeader(3), func(row []string) error {
		id, err1 := strconv.Atoi(row[0])
		start, err2 := strconv.ParseInt(row[1], 10, 64)
		end, err3 := strconv.ParseInt(row[2], 10, 64)
		if err := firstErr(err1, err2, err3); err != nil {
			return fmt.Errorf("trace: segments.csv: %w", err)
		}
		if id < 0 || id > maxID || !seen[id] {
			return fmt.Errorf("trace: segments.csv: segment for undeclared VM id %v", row[0])
		}
		v := r.vms[id]
		if start < 0 || end <= start ||
			timeutil.Slot(start) < v.arrival || timeutil.Slot(end) > v.depart {
			return fmt.Errorf("trace: segments.csv: segment %v outside VM %d's lifetime [%d,%d)",
				row, id, v.arrival, v.depart)
		}
		r.vms[id].segs = append(r.vms[id].segs, slotSpan{timeutil.Slot(start), timeutil.Slot(end)})
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// Ascending id order, so an overlap error always names the lowest id.
	for id := range r.vms {
		rs := r.vms[id].segs
		sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
		for i := 1; i < len(rs); i++ {
			if rs[i].start < rs[i-1].end {
				return nil, fmt.Errorf("trace: segments.csv: overlapping segments for VM %d", id)
			}
		}
	}

	// profiles.csv
	r.profiles = make([][][]float64, maxID+1)
	err = forEachCSVRow(filepath.Join(dir, "profiles.csv"), skipHeader(3), func(row []string) error {
		id, err1 := strconv.Atoi(row[0])
		sl, err2 := strconv.ParseInt(row[1], 10, 64)
		if err := firstErr(err1, err2); err != nil {
			return fmt.Errorf("trace: profiles.csv: %w", err)
		}
		if id < 0 || id > maxID || sl < 0 || sl >= maxReplaySlots {
			return fmt.Errorf("trace: profiles.csv: bad row %v", row)
		}
		if r.samples == 0 {
			r.samples = len(row) - 2
		} else if len(row)-2 != r.samples {
			return fmt.Errorf("trace: profiles.csv: ragged row for VM %d slot %d: %d samples, want %d",
				id, sl, len(row)-2, r.samples)
		}
		if timeutil.Slot(sl) >= r.slots {
			r.slots = timeutil.Slot(sl) + 1
		}
		prof := make([]float64, len(row)-2)
		for i, cell := range row[2:] {
			u, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("trace: profiles.csv: %w", err)
			}
			prof[i] = u
		}
		if r.profiles[id] == nil {
			r.profiles[id] = make([][]float64, 0)
		}
		for int64(len(r.profiles[id])) <= sl {
			r.profiles[id] = append(r.profiles[id], nil)
		}
		r.profiles[id][sl] = prof
		return nil
	})
	if err != nil {
		return nil, err
	}

	// volumes.csv (optional). A row outside the declared horizon would be
	// silently unreachable by the simulator, so it is a load error.
	r.volumes = make([][]VolumeEntry, r.slots)
	err = forEachCSVRow(filepath.Join(dir, "volumes.csv"), skipHeader(4), func(row []string) error {
		sl, err1 := strconv.ParseInt(row[0], 10, 64)
		from, err2 := strconv.Atoi(row[1])
		to, err3 := strconv.Atoi(row[2])
		bytes, err4 := strconv.ParseFloat(row[3], 64)
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return fmt.Errorf("trace: volumes.csv: %w", err)
		}
		if sl < 0 || int(sl) >= len(r.volumes) {
			return fmt.Errorf("trace: volumes.csv: slot %d outside the %d-slot horizon", sl, len(r.volumes))
		}
		r.volumes[sl] = append(r.volumes[sl], VolumeEntry{From: from, To: to, Vol: units.DataSize(bytes)})
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	// Active index.
	r.active = make([][]int, r.slots)
	for id, v := range r.vms {
		if v.segs != nil {
			for _, s := range v.segs {
				for sl := s.start; sl < s.end && sl < r.slots; sl++ {
					r.active[sl] = append(r.active[sl], id)
				}
			}
			continue
		}
		for sl := v.arrival; sl < v.depart && sl < r.slots; sl++ {
			r.active[sl] = append(r.active[sl], id)
		}
	}
	return r, nil
}

// forEachCSVRow streams a CSV file row by row. The header row goes to
// onHeader, which maps columns and returns the column count every data
// row must reach; fn gets each data row. The row slice is reused between
// calls; fn must not retain it. Unlike a whole-file load, memory stays
// bounded by one record regardless of trace size.
func forEachCSVRow(path string, onHeader func(header []string) (minCols int, err error), fn func(row []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	minCols := -1 // header not read yet
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: %s: %w", filepath.Base(path), err)
		}
		switch {
		case minCols < 0:
			minCols, err = onHeader(row)
		case len(row) < minCols:
			err = fmt.Errorf("trace: %s: row %v has %d columns, want >= %d",
				filepath.Base(path), row, len(row), minCols)
		default:
			err = fn(row)
		}
		if err != nil {
			return err
		}
	}
}

// skipHeader is the onHeader of a file with fixed columns: it ignores the
// header row and asks every data row for at least n columns.
func skipHeader(n int) func([]string) (int, error) {
	return func([]string) (int, error) { return n, nil }
}
