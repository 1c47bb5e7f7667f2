package alloc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
)

// oraclePack is the first-fit-decreasing packer as it was before the
// hot-sample skip: every candidate server pays the full combined-peak scan.
// It is the reference CorrelationAware and PlainFFD must reproduce field
// for field.
func oraclePack(ids []int, ps *correlation.ProfileSet, model *power.ServerModel, maxServers int, corrAware bool) Result {
	capTop := model.MaxCapacity()
	samples := ps.Samples()

	order := append([]int(nil), ids...)
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := ps.Peak(a), ps.Peak(b)
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return cmp.Compare(a, b)
	})

	var res Result
	admit := func(srv *ServerAlloc, id int, prof []float64, profLen int) (float64, bool) {
		if corrAware {
			peak := 0.0
			for t := 0; t < profLen; t++ {
				if s := srv.aggregate[t] + prof[t]; s > peak {
					peak = s
				}
			}
			return peak, peak <= capTop+1e-9
		}
		peak := srv.Peak + ps.Peak(id)
		return peak, peak <= capTop+1e-9
	}
	place := func(srv *ServerAlloc, id int, prof []float64, profLen int, peak float64) {
		srv.VMs = append(srv.VMs, id)
		srv.Peak = peak
		if corrAware {
			for t := 0; t < profLen; t++ {
				srv.aggregate[t] += prof[t]
			}
		}
	}

	for _, id := range order {
		var prof []float64
		profLen := 0
		if corrAware {
			prof = ps.Profile(id)
			profLen = len(prof)
			if profLen > samples {
				profLen = samples
			}
		}
		placed := false
		for s := range res.Servers {
			if peak, ok := admit(&res.Servers[s], id, prof, profLen); ok {
				place(&res.Servers[s], id, prof, profLen, peak)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if len(res.Servers) < maxServers {
			srv := ServerAlloc{aggregate: make([]float64, samples)}
			peak, _ := admit(&srv, id, prof, profLen)
			place(&srv, id, prof, profLen, peak)
			res.Servers = append(res.Servers, srv)
			continue
		}
		best := 0
		for s := 1; s < len(res.Servers); s++ {
			if res.Servers[s].Peak < res.Servers[best].Peak {
				best = s
			}
		}
		if len(res.Servers) == 0 {
			res.Servers = append(res.Servers, ServerAlloc{aggregate: make([]float64, samples)})
		}
		peak, _ := admit(&res.Servers[best], id, prof, profLen)
		place(&res.Servers[best], id, prof, profLen, peak)
		res.Overflowed++
	}

	for s := range res.Servers {
		lvl, _ := model.LowestLevelFor(res.Servers[s].Peak)
		res.Servers[s].Level = lvl
	}
	res.Active = len(res.Servers)
	return res
}

// oracleProbe is Tracker.Probe as it was before the hot-sample skip: the
// full combined peak on every server of the bounded window.
func oracleProbe(t *Tracker, prof []float64) (srv int, peak float64, ok bool) {
	end := min(t.cursor+t.probeLimit, len(t.servers))
	n := min(len(prof), t.samples)
	for s := t.cursor; s < end; s++ {
		ts := &t.servers[s]
		var p float64
		for i := 0; i < n; i++ {
			if v := ts.aggregate[i] + prof[i]; v > p {
				p = v
			}
		}
		if p < ts.peak {
			p = ts.peak
		}
		if p <= t.capTop+1e-9 {
			return s, p, true
		}
	}
	if len(t.servers) < t.maxServers {
		var p float64
		for _, u := range prof {
			if u > p {
				p = u
			}
		}
		return len(t.servers), p, true
	}
	return -1, 0, false
}

// oracleCase is one generated DC: the VMs to pack, their profiles and the
// server budget.
type oracleCase struct {
	ids        []int
	ps         *correlation.ProfileSet
	maxServers int
}

// dirtySamples are the values a dirty case mixes into its profiles.
var dirtySamples = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -0.5, -3, 0, 1e300}

// genCase builds a DC from a byte stream (next returns 0 once a finite
// stream is exhausted). Utilizations come in 256 levels up to half a
// server, so peaks tie often and servers fill after a handful of VMs; a
// dirty case mixes NaN, ±Inf, negative and -0 samples in, and rows may end
// in a zero tail of any length.
func genCase(next func() byte, samples, budgetClass int) oracleCase {
	n := int(next())
	dirty := next()%3 == 0
	ps := correlation.NewProfileSet(samples)
	var ids []int
	id := 0
	for range n {
		id += 1 + int(next()%3)
		drawn := samples
		if next()%8 == 0 {
			drawn = int(next()) % samples
		}
		row := make([]float64, samples)
		for t := range row[:drawn] {
			b := next()
			if dirty && b < 24 {
				row[t] = dirtySamples[int(b)%len(dirtySamples)]
				continue
			}
			row[t] = float64(b) / 64
		}
		ps.Add(id, row)
		ids = append(ids, id)
	}
	var maxServers int
	switch budgetClass % 4 {
	case 1:
		maxServers = 1
	case 2:
		maxServers = 2 + int(next()%4)
	case 3:
		maxServers = n + 1
	}
	return oracleCase{ids: ids, ps: ps, maxServers: maxServers}
}

// diffResults describes the first field where got differs from want (""
// when they are identical). Floats compare by their bits, except that any
// two NaNs match in the unexported aggregate: the hardware picks a NaN
// sum's payload by operand order, which the compiler is free to commute,
// and no admission sum or peak ever reads a NaN.
func diffResults(got, want Result) string {
	if got.Active != want.Active || got.Overflowed != want.Overflowed || len(got.Servers) != len(want.Servers) {
		return fmt.Sprintf("active/overflowed/servers %d/%d/%d, want %d/%d/%d",
			got.Active, got.Overflowed, len(got.Servers), want.Active, want.Overflowed, len(want.Servers))
	}
	for s := range got.Servers {
		g, w := got.Servers[s], want.Servers[s]
		switch {
		case !slices.Equal(g.VMs, w.VMs):
			return fmt.Sprintf("server %d VMs %v, want %v", s, g.VMs, w.VMs)
		case g.Level != w.Level:
			return fmt.Sprintf("server %d level %d, want %d", s, g.Level, w.Level)
		case math.Float64bits(g.Peak) != math.Float64bits(w.Peak):
			return fmt.Sprintf("server %d peak %v, want %v", s, g.Peak, w.Peak)
		case !slices.EqualFunc(g.aggregate, w.aggregate, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
		}):
			return fmt.Sprintf("server %d aggregate %v, want %v", s, g.aggregate, w.aggregate)
		}
	}
	return ""
}

func checkAgainstOracle(t *testing.T, c oracleCase) {
	t.Helper()
	m := power.E5410()
	for _, corrAware := range []bool{true, false} {
		var got Result
		if corrAware {
			got = CorrelationAware(c.ids, c.ps, m, c.maxServers)
		} else {
			got = PlainFFD(c.ids, c.ps, m, c.maxServers)
		}
		want := oraclePack(c.ids, c.ps, m, c.maxServers, corrAware)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("corrAware=%v, %d VMs, S=%d, maxServers=%d: %s",
				corrAware, len(c.ids), c.ps.Samples(), c.maxServers, d)
		}
	}
}

func TestPackMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	next := func() byte { return byte(r.Intn(256)) }
	for _, samples := range []int{1, 2, 5, 12} {
		for budget := range 4 {
			for range 40 {
				checkAgainstOracle(t, genCase(next, samples, budget))
			}
		}
	}
}

func FuzzCorrelationAware(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 3, 200, 0, 1, 9, 64, 128, 255, 3, 0, 7, 7, 7})
	f.Add([]byte{2, 1, 40, 3, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		samples := []int{1, 2, 5, 12}[next()%4]
		budget := int(next())
		checkAgainstOracle(t, genCase(next, samples, budget))
	})
}

// TestTrackerMatchesOracleProbe drives a tracker through random arrivals,
// departures and telemetry refreshes and checks every Probe against the
// unskipped scan over the same state.
func TestTrackerMatchesOracleProbe(t *testing.T) {
	m := power.E5410()
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		samples := []int{1, 2, 5, 12}[seed%4]
		dirty := seed%3 == 0
		profs := map[int][]float64{}
		profile := func(id int) []float64 { return profs[id] }
		tr := NewTracker(m, 2+r.Intn(30), samples, profile)
		if pl := r.Intn(20); pl > 0 {
			tr.probeLimit = pl
		}
		where := map[int]int{}
		var resident []int
		draw := func() []float64 {
			rowLen := samples
			switch r.Intn(8) {
			case 0:
				rowLen = r.Intn(samples)
			case 1:
				rowLen = samples + 1 + r.Intn(3)
			}
			row := make([]float64, rowLen)
			for i := range row {
				if dirty && r.Intn(10) == 0 {
					row[i] = dirtySamples[r.Intn(len(dirtySamples))]
					continue
				}
				row[i] = float64(r.Intn(256)) / 64
			}
			return row
		}
		for id := 0; id < 600; id++ {
			switch op := r.Intn(10); {
			case op < 3 && len(resident) > 0:
				k := r.Intn(len(resident))
				gone := resident[k]
				resident = slices.Delete(resident, k, k+1)
				if !tr.Remove(where[gone], gone) {
					t.Fatalf("seed %d: remove %d failed", seed, gone)
				}
				continue
			case op == 3:
				for _, v := range resident {
					profs[v] = draw()
				}
				tr.RebuildAll()
				continue
			}
			prof := draw()
			srv, peak, ok := tr.Probe(prof)
			wsrv, wpeak, wok := oracleProbe(tr, prof)
			if srv != wsrv || ok != wok || math.Float64bits(peak) != math.Float64bits(wpeak) {
				t.Fatalf("seed %d arrival %d: Probe = (%d, %v, %v), oracle (%d, %v, %v)",
					seed, id, srv, peak, ok, wsrv, wpeak, wok)
			}
			if !ok {
				srv = tr.Overflow()
			}
			profs[id] = prof
			where[id] = srv
			resident = append(resident, id)
			tr.Commit(srv, id, prof)
		}
	}
}
