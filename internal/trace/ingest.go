package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// IngestOptions parameterizes IngestCluster. Zero values select the
// defaults listed on each field.
type IngestOptions struct {
	// Samples is the per-slot profile resolution readings are binned into
	// (default 12, the simulator's ProfileSamples default).
	Samples int
	// CPUScale divides raw CPU readings into core fractions (default 100:
	// the Azure-style percent column). Use 1 for traces already in [0,1].
	CPUScale float64
	// DefaultImageGB sizes migration images when the VM table has no
	// image column (default 4).
	DefaultImageGB float64
	// MaxVMs and MaxSlots bound the ingested fleet and horizon (defaults:
	// the replay bounds, ~1M VMs and ~3.7 years of hourly slots). A trace
	// exceeding them is an ingest error, never a silent truncation.
	MaxVMs   int
	MaxSlots int
}

func (o *IngestOptions) applyDefaults() {
	if o.Samples <= 0 {
		o.Samples = 12
	}
	if o.CPUScale == 0 {
		o.CPUScale = 100
	}
	if o.DefaultImageGB <= 0 {
		o.DefaultImageGB = 4
	}
	if o.MaxVMs <= 0 {
		o.MaxVMs = maxReplayVMs
	}
	if o.MaxSlots <= 0 {
		o.MaxSlots = maxReplaySlots
	}
}

// columnIndex maps a header row to column positions by normalized name
// (lowercased, separators stripped), so Azure-style ("vmid,vmcreated,...")
// and Google-style ("vm_id,start_time,...") headers both resolve.
func columnIndex(header []string, names ...string) int {
	norm := func(s string) string {
		s = strings.ToLower(strings.TrimSpace(s))
		return strings.NewReplacer("_", "", "-", "", " ", "").Replace(s)
	}
	for _, want := range names {
		for i, h := range header {
			if norm(h) == norm(want) {
				return i
			}
		}
	}
	return -1
}

// IngestCluster streams an Azure/Google-style cluster trace — a VM
// lifetime CSV (id, created, deleted timestamps in seconds, optional
// image_gb) plus a per-interval utilization CSV (timestamp, id, avg CPU) —
// into a *Replay ready for Compile. Both files are read row by row;
// memory is proportional to the binned profile tables, never the input.
//
// Timestamps are re-based to the earliest VM creation, floored to the
// hour, and binned into hourly slots of opt.Samples averaged sub-bins.
// Sub-bins without a reading carry the previous reading forward (a
// sampled trace is piecewise constant between observations); slots before
// a VM's first reading carry its first value backward. Malformed or
// referentially broken rows — non-finite times (an infinite deletion time
// included: a VM that never departs has no slot to leave at), non-finite
// or negative readings, unknown VM ids in the utilization file, readings
// outside the VM's lifetime, duplicate lifetime rows — are ingest errors,
// not silent drops.
func IngestCluster(vmPath, cpuPath string, opt IngestOptions) (*Replay, error) {
	opt.applyDefaults()

	// Pass 1: VM lifetimes. String ids become dense ints in file order.
	type vmLife struct {
		start, end float64 // seconds, trace epoch
		imageGB    float64
	}
	idOf := map[string]int{}
	var lives []vmLife
	idCol, startCol, endCol, imgCol := -1, -1, -1, -1
	minStart := math.Inf(1)
	err := forEachCSVRow(vmPath, func(h []string) (int, error) {
		idCol = columnIndex(h, "vmid", "vm_id", "id", "machine_id", "instance_id")
		startCol = columnIndex(h, "vmcreated", "created", "start_time", "starttime", "start", "creation_time")
		endCol = columnIndex(h, "vmdeleted", "deleted", "end_time", "endtime", "end", "deletion_time")
		imgCol = columnIndex(h, "image_gb", "imagegb", "image")
		if idCol < 0 || startCol < 0 || endCol < 0 {
			return 0, fmt.Errorf("trace: %s: header %v lacks id/created/deleted columns", vmPath, h)
		}
		return max(idCol, startCol, endCol) + 1, nil
	}, func(row []string) error {
		key := row[idCol]
		if _, dup := idOf[key]; dup {
			return fmt.Errorf("trace: %s: duplicate VM id %q", vmPath, key)
		}
		start, err1 := strconv.ParseFloat(row[startCol], 64)
		end, err2 := strconv.ParseFloat(row[endCol], 64)
		if err := firstErr(err1, err2, finite("created", start), finite("deleted", end)); err != nil {
			return fmt.Errorf("trace: %s: VM %q: %w", vmPath, key, err)
		}
		if end <= start {
			return fmt.Errorf("trace: %s: VM %q deleted (%v) before created (%v)", vmPath, key, end, start)
		}
		imageGB := opt.DefaultImageGB
		if imgCol >= 0 && imgCol < len(row) {
			if g, err := strconv.ParseFloat(row[imgCol], 64); err == nil && g > 0 {
				imageGB = g
			}
		}
		if len(lives) >= opt.MaxVMs {
			return fmt.Errorf("trace: %s: more than %d VMs", vmPath, opt.MaxVMs)
		}
		idOf[key] = len(lives)
		lives = append(lives, vmLife{start: start, end: end, imageGB: imageGB})
		if start < minStart {
			minStart = start
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(lives) == 0 {
		return nil, fmt.Errorf("trace: %s: no VM rows", vmPath)
	}

	// Re-base to the earliest creation, floored to the hour, and slot the
	// lifetimes.
	t0 := math.Floor(minStart/timeutil.SlotSeconds) * timeutil.SlotSeconds
	r := &Replay{
		samples: opt.Samples,
		vms:     make([]replayVM, len(lives)),
	}
	for id, lf := range lives {
		// Bounded in float before the conversion: the span of two finite
		// times can still overflow to Inf.
		arrF := math.Floor((lf.start - t0) / timeutil.SlotSeconds)
		depF := math.Ceil((lf.end - t0) / timeutil.SlotSeconds)
		if !(arrF >= 0 && depF <= float64(opt.MaxSlots)) {
			return nil, fmt.Errorf("trace: %s: VM %d spans slots [%v, %v), beyond the %d-slot bound",
				vmPath, id, arrF, depF, opt.MaxSlots)
		}
		arr, dep := timeutil.Slot(arrF), timeutil.Slot(depF)
		if dep <= arr {
			dep = arr + 1
		}
		r.vms[id] = replayVM{arrival: arr, depart: dep, image: units.DataSize(lf.imageGB * 1e9)}
		if dep > r.slots {
			r.slots = dep
		}
	}

	// Pass 2: utilization readings, binned into (slot, sub-bin) averages.
	type bins struct {
		sum   []float64
		count []uint32
	}
	acc := make([]bins, len(lives))
	tsCol, rdIDCol, cpuCol := -1, -1, -1
	err = forEachCSVRow(cpuPath, func(h []string) (int, error) {
		tsCol = columnIndex(h, "timestamp", "ts", "time")
		rdIDCol = columnIndex(h, "vmid", "vm_id", "id", "machine_id", "instance_id")
		cpuCol = columnIndex(h, "avgcpu", "avg_cpu", "cpu", "cpu_usage", "cpuusage", "util", "avg_cpu_pct", "cpu_rate")
		if tsCol < 0 || rdIDCol < 0 || cpuCol < 0 {
			return 0, fmt.Errorf("trace: %s: header %v lacks timestamp/id/cpu columns", cpuPath, h)
		}
		return max(tsCol, rdIDCol, cpuCol) + 1, nil
	}, func(row []string) error {
		id, ok := idOf[row[rdIDCol]]
		if !ok {
			return fmt.Errorf("trace: %s: reading for unknown VM id %q", cpuPath, row[rdIDCol])
		}
		ts, err1 := strconv.ParseFloat(row[tsCol], 64)
		cpu, err2 := strconv.ParseFloat(row[cpuCol], 64)
		if err := firstErr(err1, err2, finite("timestamp", ts)); err != nil {
			return fmt.Errorf("trace: %s: VM %q: %w", cpuPath, row[rdIDCol], err)
		}
		if !(cpu >= 0 && cpu <= math.MaxFloat64) {
			return fmt.Errorf("trace: %s: VM %q: reading %v is not finite and non-negative", cpuPath, row[rdIDCol], cpu)
		}
		v := r.vms[id]
		sec := ts - t0
		slF := math.Floor(sec / timeutil.SlotSeconds)
		if !(slF >= float64(v.arrival) && slF < float64(v.depart)) {
			return fmt.Errorf("trace: %s: reading at %v for VM %q outside its lifetime [slot %d, %d)",
				cpuPath, ts, row[rdIDCol], v.arrival, v.depart)
		}
		sl := timeutil.Slot(slF)
		b := &acc[id]
		if b.sum == nil {
			span := int(v.depart-v.arrival) * opt.Samples
			b.sum = make([]float64, span)
			b.count = make([]uint32, span)
		}
		within := sec - float64(sl)*timeutil.SlotSeconds
		bin := int(within * float64(opt.Samples) / timeutil.SlotSeconds)
		if bin >= opt.Samples {
			bin = opt.Samples - 1
		}
		k := int(sl-v.arrival)*opt.Samples + bin
		b.sum[k] += units.Clamp(cpu/opt.CPUScale, 0, 1)
		b.count[k]++
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Finalize: averaged bins, gaps carried piecewise constant across the
	// VM's lifetime. VMs with no readings at all stay profile-less (zero
	// demand), matching the replay contract for absent rows.
	r.profiles = make([][][]float64, len(lives))
	for id := range lives {
		b := acc[id]
		if b.sum == nil {
			continue
		}
		v := r.vms[id]
		// Forward pass: average filled bins, carry the last value into
		// gaps; then a single backward fill covers bins before the first
		// reading.
		vals := make([]float64, len(b.sum))
		carry, seen := 0.0, false
		firstVal, firstAt := 0.0, -1
		for k := range b.sum {
			if b.count[k] > 0 {
				carry = b.sum[k] / float64(b.count[k])
				if !seen {
					seen, firstVal, firstAt = true, carry, k
				}
			}
			vals[k] = carry
		}
		for k := 0; k < firstAt; k++ {
			vals[k] = firstVal
		}
		r.profiles[id] = make([][]float64, int(v.depart))
		for sl := v.arrival; sl < v.depart; sl++ {
			row := vals[int(sl-v.arrival)*opt.Samples : int(sl-v.arrival+1)*opt.Samples]
			r.profiles[id][sl] = row
		}
	}

	// No inter-VM volume data in cluster traces; the volume tables stay
	// empty (declared flows can still come from volumes.csv after an
	// ExportReplay round-trip).
	r.volumes = make([][]VolumeEntry, r.slots)
	r.active = make([][]int, r.slots)
	for id, v := range r.vms {
		for sl := v.arrival; sl < v.depart && sl < r.slots; sl++ {
			r.active[sl] = append(r.active[sl], id)
		}
	}
	return r, nil
}

// finite returns an error naming what when v is NaN or infinite.
func finite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s %v is not finite", what, v)
	}
	return nil
}
