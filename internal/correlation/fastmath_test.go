package correlation

import (
	"math"
	"slices"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// fastProfiles builds an adversarial mix of profile shapes: random loads,
// near-idle rows (forcing the quantized denominator fallback), constant
// ties, single-sample rows, saturated rows above the quantizable range,
// and exact-zero rows.
func fastProfiles(seed uint64, n, samples int) [][]float64 {
	profs := make([][]float64, n)
	for i := range profs {
		k := uint64(i)
		switch i % 6 {
		case 0: // generic random load
			p := make([]float64, samples)
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
			profs[i] = p
		case 1: // near idle: peaks sum below the quantized denominator floor
			p := make([]float64, samples)
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t)) * 0.03
			}
			profs[i] = p
		case 2: // constant ties
			p := make([]float64, samples)
			c := 0.25 + 0.5*rng.Noise01(seed, k)
			for t := range p {
				p[t] = c
			}
			profs[i] = p
		case 3: // short row: prefix semantics against full-length partners
			profs[i] = []float64{rng.Noise01(seed, k)}
		case 4: // saturated beyond the uint16 fixed-point range
			p := make([]float64, samples)
			for t := range p {
				p[t] = 20 * rng.Noise01(seed, k, uint64(t))
			}
			profs[i] = p
		default: // all zero
			profs[i] = make([]float64, samples)
		}
	}
	return profs
}

// TestFastKernelErrorBudget is the property test of the fast mode's error
// proof: for every pair — including unquantizable rows, near-idle
// fallbacks and missing ids — |fast − exact| ≤ FastEps.
func TestFastKernelErrorBudget(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		const n, samples = 60, 17
		ps := NewProfileSet(samples)
		ps.SetFastMath(true)
		for i, p := range fastProfiles(seed, n, samples) {
			ps.Add(i, p)
		}
		ps.EnsureOrders(nil)

		js := make([]int, 0, n+1)
		for j := 0; j < n; j++ {
			js = append(js, j)
		}
		js = append(js, n+7) // missing id: both kernels answer neutral
		exact := make([]float64, len(js))
		fast := make([]float64, len(js))
		worst := 0.0
		for i := 0; i < n; i++ {
			for k, j := range js {
				exact[k] = ps.CPUCorr(i, j)
			}
			ps.CPUCorrFastInto(fast, i, js)
			for k := range js {
				if d := math.Abs(fast[k] - exact[k]); d > FastEps {
					t.Fatalf("seed %d pair (%d,%d): |fast-exact| = %v > FastEps %v",
						seed, i, js[k], d, FastEps)
				} else if d > worst {
					worst = d
				}
				if one := ps.CPUCorrFast(i, js[k]); one != fast[k] {
					t.Fatalf("CPUCorrFast(%d,%d) = %v, batched = %v", i, js[k], one, fast[k])
				}
			}
		}
		t.Logf("seed %d: worst |fast-exact| = %.2e (budget %.2e)", seed, worst, FastEps)
	}
}

// TestFastKernelDisabledMatchesExact verifies fast entry points degrade to
// the exact kernel when fast math is off or quantization was rejected.
func TestFastKernelDisabledMatchesExact(t *testing.T) {
	ps := NewProfileSet(8)
	ps.Add(1, []float64{0.2, 0.9, 0.4})
	ps.Add(2, []float64{0.5, 0.1, 0.8})
	ps.EnsureOrders(nil)
	if got, want := ps.CPUCorrFast(1, 2), ps.CPUCorr(1, 2); got != want {
		t.Fatalf("fast math off: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
	ps.SetFastMath(true)
	ps.Add(3, []float64{25.0, 0.1}) // unquantizable: > uint16 range
	ps.EnsureOrders(nil)
	if got, want := ps.CPUCorrFast(3, 2), ps.CPUCorr(3, 2); got != want {
		t.Fatalf("unquantizable anchor: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
	if got, want := ps.CPUCorrFast(2, 3), ps.CPUCorr(2, 3); got != want {
		t.Fatalf("unquantizable partner: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
}

// TestEnsureOrdersIncrementalAndParallel checks the fast-math tables: they
// survive incremental Adds (including in-place overwrites inside the built
// region), a parallel build equals the serial one, orders are descending
// and stable, and Reset, SetFastMath(false) and exact mode leave none.
func TestEnsureOrdersIncrementalAndParallel(t *testing.T) {
	src := rng.New(11).Derive("orders")
	const samples = 16
	serial := NewProfileSet(samples)
	parallel := NewProfileSet(samples)
	serial.SetFastMath(true)
	parallel.SetFastMath(true)
	rows := make([][]float64, 600)
	for id := range rows {
		rows[id] = randProfile(src, samples)
	}
	for id := 0; id < 300; id++ {
		serial.Add(id, rows[id])
		parallel.Add(id, rows[id])
	}
	serial.EnsureOrders(nil)
	parallel.EnsureOrders(par.NewBudget(8))
	// Overwrite built rows in place: the inline rebuild must match a
	// fresh build of the new contents.
	for id := 0; id < 300; id += 7 {
		rows[id] = randProfile(src, samples)
		serial.Add(id, rows[id])
		parallel.Add(id, rows[id])
	}
	for id := 300; id < 600; id++ {
		serial.Add(id, rows[id])
		parallel.Add(id, rows[id])
	}
	serial.EnsureOrders(nil)
	parallel.EnsureOrders(par.NewBudget(8))
	fresh := NewProfileSet(samples)
	fresh.SetFastMath(true)
	for id := range rows {
		fresh.Add(id, rows[id])
	}
	fresh.EnsureOrders(nil)
	if len(serial.ord) != 600*samples || len(parallel.ord) != 600*samples {
		t.Fatalf("ord lengths = %d / %d, want %d", len(serial.ord), len(parallel.ord), 600*samples)
	}
	for _, ps := range []*ProfileSet{parallel, fresh} {
		if !slices.Equal(serial.ord, ps.ord) || !slices.Equal(serial.qrow, ps.qrow) ||
			!slices.Equal(serial.qord, ps.qord) || !slices.Equal(serial.qok, ps.qok) {
			t.Fatal("fast-math tables differ from the serial incremental build")
		}
	}
	// Orders must be descending by value with ascending-index ties.
	for r := 0; r < 600; r++ {
		row := rows[r]
		ord := serial.ord[r*samples : (r+1)*samples]
		for k := 1; k < samples; k++ {
			prev, cur := ord[k-1], ord[k]
			if row[prev] < row[cur] || (row[prev] == row[cur] && prev > cur) {
				t.Fatalf("row %d: order not descending-stable at %d", r, k)
			}
		}
	}
	serial.Reset()
	if len(serial.ord) != 0 || len(serial.qrow) != 0 {
		t.Fatal("Reset kept stale fast-math tables")
	}
	// Queries after Reset+Add without EnsureOrders take the exact kernel.
	serial.Add(0, rows[0])
	serial.Add(1, rows[1])
	want := PeakCoincidence(rows[0], rows[1])
	if got := serial.CPUCorrFast(0, 1); got != want {
		t.Fatalf("unbuilt fast query after Reset = %v, want %v", got, want)
	}
	parallel.SetFastMath(false)
	if len(parallel.ord) != 0 || len(parallel.qrow) != 0 || len(parallel.qord) != 0 || len(parallel.qok) != 0 {
		t.Fatal("SetFastMath(false) kept the fast-math tables")
	}
	exact := NewProfileSet(samples)
	for id := range rows {
		exact.Add(id, rows[id])
	}
	exact.EnsureOrders(par.NewBudget(8))
	if len(exact.ord) != 0 || len(exact.qrow) != 0 {
		t.Fatal("EnsureOrders built tables without fast math")
	}
}

// BenchmarkCPUCorrFastInto measures the quantized fast kernel on
// BenchmarkCPUCorr's row population, so the two kernels compare
// directly.
func BenchmarkCPUCorrFastInto(b *testing.B) {
	ps, js := benchKernelSet()
	ps.SetFastMath(true)
	ps.EnsureOrders(nil)
	benchKernel(b, ps.CPUCorrFastInto, js)
}
