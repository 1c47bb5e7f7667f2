package trace

import (
	"fmt"
	"math"
	"sort"

	"geovmp/internal/timeutil"
)

// UsageTemplate is a fitted parameterization of one family of VM behavior —
// the bridge from an ingested real trace back to the synthetic generator.
// FitTemplates derives them from any Source; a Config with Templates set
// draws new services and VMs from the fitted families instead of the
// built-in class ranges, so synthetic presets can be calibrated to real
// data while keeping the generator's lazy, seed-deterministic sampling.
type UsageTemplate struct {
	Name   string  `json:"name"`
	Class  Class   `json:"class"`  // nearest synthetic family, for reporting
	Weight float64 `json:"weight"` // share of VMs the template represents

	Mean     float64 `json:"mean"`      // mean utilization of a reference core
	Amp      float64 `json:"amp"`       // diurnal amplitude
	PeakHour float64 `json:"peak_hour"` // hour-of-day of the diurnal peak
	FastAmp  float64 `json:"fast_amp"`  // fast noise amplitude
	SlowAmp  float64 `json:"slow_amp"`  // slow noise amplitude
	DayVar   float64 `json:"day_var"`   // day-to-day variance
}

// vmFeatures are the per-VM statistics the fit clusters on.
type vmFeatures struct {
	mean    float64
	amp     float64
	peakCos float64 // unit vector toward the diurnal peak
	peakSin float64
	fastAmp float64
	slowAmp float64
	dayVar  float64
}

// FitTemplates fits k usage templates to src by clustering per-VM trace
// statistics (mean level, diurnal amplitude and phase via first-harmonic
// projection, within-slot variability, day-to-day variance).
// The fit is deterministic: quantile-seeded k-means over sorted features,
// a fixed iteration count, no randomness. samples is the per-slot profile
// resolution read from src (<=0 selects 12). Returns at most k templates
// — fewer when src has fewer distinct VMs — ordered by descending weight.
func FitTemplates(src Source, k, samples int) []UsageTemplate {
	if k < 1 {
		k = 1
	}
	if samples <= 0 {
		samples = 12
	}
	feats := extractFeatures(src, samples)
	if len(feats) == 0 {
		return nil
	}
	if k > len(feats) {
		k = len(feats)
	}

	// Quantile-seeded k-means on (mean, amp, fastAmp, amp-weighted peak
	// vector): sort by mean level, seed centroids at the k quantiles, then
	// refine with a fixed number of rounds. Everything is ordered and
	// counted, so the result is a pure function of the input trace.
	order := make([]int, len(feats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := feats[order[a]], feats[order[b]]
		if fa.mean != fb.mean {
			return fa.mean < fb.mean
		}
		return fa.amp < fb.amp
	})
	cents := make([]vmFeatures, k)
	for c := 0; c < k; c++ {
		q := (2*c + 1) * len(order) / (2 * k)
		cents[c] = feats[order[q]]
	}
	assign := make([]int, len(feats))
	for round := 0; round < 20; round++ {
		changed := false
		for i, f := range feats {
			best, bestD := 0, math.Inf(1)
			for c := range cents {
				if d := featureDist(f, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		next := make([]vmFeatures, k)
		counts := make([]int, k)
		for i, f := range feats {
			c := assign[i]
			counts[c]++
			next[c].mean += f.mean
			next[c].amp += f.amp
			next[c].peakCos += f.amp * f.peakCos
			next[c].peakSin += f.amp * f.peakSin
			next[c].fastAmp += f.fastAmp
			next[c].slowAmp += f.slowAmp
			next[c].dayVar += f.dayVar
		}
		for c := range cents {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			n := float64(counts[c])
			next[c].mean /= n
			next[c].amp /= n
			next[c].fastAmp /= n
			next[c].slowAmp /= n
			next[c].dayVar /= n
			// Renormalize the amp-weighted peak vector.
			if h := math.Hypot(next[c].peakCos, next[c].peakSin); h > 0 {
				next[c].peakCos /= h
				next[c].peakSin /= h
			} else {
				next[c].peakCos, next[c].peakSin = cents[c].peakCos, cents[c].peakSin
			}
			cents[c] = next[c]
		}
		if !changed {
			break
		}
	}

	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	var out []UsageTemplate
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		f := cents[c]
		peak := math.Atan2(f.peakSin, f.peakCos) / (2 * math.Pi) * 24
		if peak < 0 {
			peak += 24
		}
		t := UsageTemplate{
			Weight:   float64(counts[c]) / float64(len(feats)),
			Mean:     f.mean,
			Amp:      f.amp,
			PeakHour: peak,
			FastAmp:  f.fastAmp,
			SlowAmp:  f.slowAmp,
			DayVar:   f.dayVar,
		}
		t.Class = nearestClass(t)
		out = append(out, t)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Weight > out[b].Weight })
	for i := range out {
		out[i].Name = fmt.Sprintf("fitted-%s-%d", out[i].Class, i)
	}
	return out
}

// featureDist is the squared clustering distance. Level, amplitude and
// noise are commensurate (fractions of a core); the peak phase enters as
// an amp-weighted unit vector so flat VMs do not cluster by meaningless
// phases.
func featureDist(a, b vmFeatures) float64 {
	d := (a.mean - b.mean) * (a.mean - b.mean)
	d += (a.amp - b.amp) * (a.amp - b.amp)
	d += 4 * (a.fastAmp - b.fastAmp) * (a.fastAmp - b.fastAmp)
	w := a.amp * b.amp
	d += w * ((a.peakCos-b.peakCos)*(a.peakCos-b.peakCos) + (a.peakSin-b.peakSin)*(a.peakSin-b.peakSin))
	return d
}

// nearestClass labels a template with the built-in family it most
// resembles, so calibrated workloads keep meaningful class reporting.
func nearestClass(t UsageTemplate) Class {
	switch {
	case t.Amp < 0.07 && t.Mean > 0.45:
		return ClassHPC
	case t.PeakHour >= 22 || t.PeakHour < 6:
		return ClassBatch
	case t.FastAmp >= 0.06:
		return ClassWebSearch
	default:
		return ClassMapReduce
	}
}

// extractFeatures scans src once, slot by slot, accumulating per-VM
// statistics from the per-slot profiles.
func extractFeatures(src Source, samples int) []vmFeatures {
	n := src.NumVMs()
	type acc struct {
		slots               int
		sum, cosSum, sinSum float64
		halfRangeSum        float64
		daySum              map[int]float64
		dayN                map[int]int
	}
	accs := make([]*acc, n)
	prof := make([]float64, samples)
	filler, _ := src.(slotProfileFiller)
	for sl := timeutil.Slot(0); sl < src.Slots(); sl++ {
		h := float64(sl.HourUTC())
		theta := h / 24 * 2 * math.Pi
		cosT, sinT := math.Cos(theta), math.Sin(theta)
		day := int(sl) / 24
		for _, id := range src.ActiveVMs(sl) {
			if id < 0 || id >= n {
				continue
			}
			if filler != nil {
				filler.FillSlotProfile(prof, id, sl)
			} else {
				copy(prof, src.SlotProfile(id, sl, samples))
			}
			lo, hi, sum := prof[0], prof[0], 0.0
			for _, u := range prof {
				sum += u
				if u < lo {
					lo = u
				}
				if u > hi {
					hi = u
				}
			}
			m := sum / float64(samples)
			a := accs[id]
			if a == nil {
				a = &acc{daySum: map[int]float64{}, dayN: map[int]int{}}
				accs[id] = a
			}
			a.slots++
			a.sum += m
			a.cosSum += m * cosT
			a.sinSum += m * sinT
			a.halfRangeSum += (hi - lo) / 2
			a.daySum[day] += m
			a.dayN[day]++
		}
	}

	var out []vmFeatures
	for _, a := range accs {
		if a == nil || a.slots == 0 {
			continue
		}
		ns := float64(a.slots)
		mean := a.sum / ns
		// First-harmonic projection over the active slots: amplitude and
		// phase of the best-fit 24 h cosine.
		amp := 2 * math.Hypot(a.cosSum, a.sinSum) / ns
		var pc, ps float64 = 1, 0
		if h := math.Hypot(a.cosSum, a.sinSum); h > 0 {
			pc, ps = a.cosSum/h, a.sinSum/h
		}
		// Within-slot half-range mixes the fast and slow noise; split it
		// with the synthetic generator's typical 60/40 proportion.
		half := a.halfRangeSum / ns
		f := vmFeatures{
			mean:    mean,
			amp:     amp,
			peakCos: pc,
			peakSin: ps,
			fastAmp: 0.6 * half,
			slowAmp: 0.4 * half,
		}
		if len(a.daySum) >= 2 && mean > 0 {
			days := make([]int, 0, len(a.daySum))
			for d := range a.daySum {
				days = append(days, d)
			}
			sort.Ints(days)
			var s, s2 float64
			for _, d := range days {
				r := a.daySum[d] / float64(a.dayN[d]) / mean
				s += r
				s2 += r * r
			}
			nd := float64(len(days))
			if v := s2/nd - (s/nd)*(s/nd); v > 0 {
				f.dayVar = math.Sqrt(v)
			}
		}
		out = append(out, f)
	}
	return out
}
