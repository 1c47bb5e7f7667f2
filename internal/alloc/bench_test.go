package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
)

// BenchmarkCorrelationAware packs one geo5dc-large-sized DC (2,500 VMs,
// 360 servers) at 12 and 48 samples per profile. Each VM's utilization is
// a diurnal sine of random base, swing and phase plus noise, so peaks
// spread and the packing ends near the ~130 active servers such a DC uses.
// It reports ns per packed VM and the active server count.
func BenchmarkCorrelationAware(b *testing.B) {
	const vms, servers = 2500, 360
	m := power.E5410()
	for _, samples := range []int{12, 48} {
		r := rand.New(rand.NewSource(42))
		ps := correlation.NewProfileSet(samples)
		ids := make([]int, vms)
		row := make([]float64, samples)
		for id := range ids {
			ids[id] = id
			base := 0.1 + 0.45*r.Float64()
			swing := 0.6 * r.Float64()
			phase := 2 * math.Pi * r.Float64()
			for t := range row {
				u := base + swing*math.Sin(2*math.Pi*float64(t)/float64(samples)+phase) + 0.1*r.Float64()
				row[t] = max(u, 0)
			}
			ps.Add(id, row)
		}
		b.Run(fmt.Sprintf("S=%d", samples), func(b *testing.B) {
			var res Result
			for b.Loop() {
				res = CorrelationAware(ids, ps, m, servers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vms), "ns/VM")
			b.ReportMetric(float64(res.Active), "servers")
		})
	}
}
