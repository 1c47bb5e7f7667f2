// Package network implements the paper's Section III: the geo-distributed
// topology, the local/global latency model (Eqs. 1-4) and the
// effective-bandwidth fragmentation loop of Algorithm 1.
//
// Each DC reaches the shared storage of its own site over a local link
// (B_L, 10 Gb/s in the paper) and every other DC over a dedicated full-mesh
// backbone link (B_bb, 100 Gb/s). Backbone links suffer a bit error rate
// (BER) redrawn per one-second transmission step from a categorical
// distribution; corrupted data is resent, which Algorithm 1 models by
// shrinking the effective bandwidth Be(t) = (1-BER(t))*B_bb and fragmenting
// the transfer into unit time steps. Propagation delay is distance over the
// speed of light in fiber.
package network

import (
	"fmt"
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

// SpeedOfLight is the signal propagation speed used for the propagation
// delay term, in meters per second. The paper says "speed of light"; we use
// the speed of light in fiber (~2/3 c), the physically meaningful constant
// for optical links.
const SpeedOfLight = 2.0e8

// BERDistribution is the categorical distribution the per-step bit error
// rate is drawn from. The paper's Table-less setup text gives
// {1e-6: 54%, 1e-5: 20%, 1e-4: 15%, 1e-3: 10%, 1e-2: 1%}.
type BERDistribution struct {
	Rates []float64 // candidate BER values
	Probs []float64 // matching probabilities (need not sum exactly to 1)
}

// PaperBER returns the distribution from the paper's experimental setup.
func PaperBER() BERDistribution {
	return BERDistribution{
		Rates: []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2},
		Probs: []float64{0.54, 0.20, 0.15, 0.10, 0.01},
	}
}

// Validate checks structural consistency.
func (d BERDistribution) Validate() error {
	if len(d.Rates) == 0 || len(d.Rates) != len(d.Probs) {
		return fmt.Errorf("network: BER distribution needs matching non-empty rates/probs")
	}
	for i, r := range d.Rates {
		if r < 0 || r >= 1 {
			return fmt.Errorf("network: BER rate %v at %d out of [0,1)", r, i)
		}
		if d.Probs[i] < 0 {
			return fmt.Errorf("network: negative probability at %d", i)
		}
	}
	return nil
}

// Draw samples a BER value using src.
func (d BERDistribution) Draw(src *rng.Source) float64 {
	return d.Rates[src.Categorical(d.Probs)]
}

// Topology is the static description of the geo-distributed network.
type Topology struct {
	N         int               // number of DCs
	DistanceM [][]float64       // great-circle distances, meters; symmetric, zero diagonal
	LocalBW   []units.Bandwidth // per-DC local (storage) link bandwidth B_L
	// IntraBW is the aggregate intranet fabric bandwidth per DC used by
	// VM-to-VM exchanges that never leave the site. The paper gives each DC
	// 10 rooms on 10 Gb/s full-duplex intranet links, so the fabric carries
	// roughly 10x one local link; traffic leaving or entering the DC still
	// serializes on the single storage uplink B_L.
	IntraBW  []units.Bandwidth
	Backbone units.Bandwidth // full-mesh inter-DC link bandwidth B_bb
	BER      BERDistribution
}

// PaperTopology returns the paper's three-site setup: Lisbon, Zurich,
// Helsinki, 100 Gb/s full-duplex backbone, 10 Gb/s intranet links.
func PaperTopology() *Topology {
	const (
		lisZur = 1450e3 // Lisbon-Zurich great-circle, meters
		lisHel = 3360e3 // Lisbon-Helsinki
		zurHel = 1970e3 // Zurich-Helsinki
	)
	return &Topology{
		N: 3,
		DistanceM: [][]float64{
			{0, lisZur, lisHel},
			{lisZur, 0, zurHel},
			{lisHel, zurHel, 0},
		},
		LocalBW:  []units.Bandwidth{10 * units.GigabitPerSecond, 10 * units.GigabitPerSecond, 10 * units.GigabitPerSecond},
		IntraBW:  []units.Bandwidth{100 * units.GigabitPerSecond, 100 * units.GigabitPerSecond, 100 * units.GigabitPerSecond},
		Backbone: 100 * units.GigabitPerSecond,
		BER:      PaperBER(),
	}
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if t.N <= 0 {
		return fmt.Errorf("network: non-positive DC count %d", t.N)
	}
	if len(t.DistanceM) != t.N || len(t.LocalBW) != t.N {
		return fmt.Errorf("network: matrix sizes disagree with N=%d", t.N)
	}
	for i := range t.DistanceM {
		if len(t.DistanceM[i]) != t.N {
			return fmt.Errorf("network: distance row %d has wrong length", i)
		}
		if t.DistanceM[i][i] != 0 {
			return fmt.Errorf("network: non-zero self distance at %d", i)
		}
		for j := range t.DistanceM[i] {
			if t.DistanceM[i][j] < 0 {
				return fmt.Errorf("network: negative distance %d->%d", i, j)
			}
			if math.Abs(t.DistanceM[i][j]-t.DistanceM[j][i]) > 1e-6 {
				return fmt.Errorf("network: asymmetric distance %d<->%d", i, j)
			}
		}
	}
	if t.Backbone <= 0 {
		return fmt.Errorf("network: non-positive backbone bandwidth")
	}
	for i, b := range t.LocalBW {
		if b <= 0 {
			return fmt.Errorf("network: non-positive local bandwidth at %d", i)
		}
	}
	if len(t.IntraBW) != 0 && len(t.IntraBW) != t.N {
		return fmt.Errorf("network: IntraBW length %d, want %d or empty", len(t.IntraBW), t.N)
	}
	for i, b := range t.IntraBW {
		if b <= 0 {
			return fmt.Errorf("network: non-positive intra bandwidth at %d", i)
		}
	}
	return t.BER.Validate()
}

// State carries the per-slot stochastic link conditions: one BER value per
// directed backbone link, redrawn every transmission step inside Algorithm 1
// around a per-slot base draw. It is owned by a single goroutine.
type State struct {
	topo *Topology
	src  *rng.Source
	// berBase[i][j] is the slot's representative BER for link i->j; the
	// per-step redraw in Algorithm 1 jitters around the distribution but the
	// base draw keeps slots distinguishable (good and bad network hours).
	berBase [][]float64
	// degrade[i][j], when set, multiplies link i->j's effective backbone
	// bandwidth — the fault schedule's partitions and degradations. Nil
	// (the healthy state) leaves the latency arithmetic untouched, so
	// fault-free runs stay bit-identical to builds without the field.
	degrade [][]float64
}

// NewState creates link state over topo driven by src.
func NewState(topo *Topology, src *rng.Source) *State {
	s := &State{topo: topo, src: src, berBase: make([][]float64, topo.N)}
	for i := range s.berBase {
		s.berBase[i] = make([]float64, topo.N)
	}
	s.Reroll()
	return s
}

// Reroll redraws every directed link's base BER; the simulator calls it once
// per slot.
func (s *State) Reroll() {
	for i := 0; i < s.topo.N; i++ {
		for j := 0; j < s.topo.N; j++ {
			if i == j {
				continue
			}
			s.berBase[i][j] = s.topo.BER.Draw(s.src)
		}
	}
}

// SetDegrade installs per-link bandwidth factors for the current slot
// (fault-schedule partitions/degradations); nil restores the healthy
// state. Factors must be positive; the matrix is read, not copied.
func (s *State) SetDegrade(f [][]float64) { s.degrade = f }

// LocalLatency implements Eq. 2/3's building block: the time for volume vol
// to cross DC i's local link.
func (t *Topology) LocalLatency(i int, vol units.DataSize) float64 {
	return t.LocalBW[i].TransferSeconds(vol)
}

// PropagationDelay returns Dist(i,j)/S_l, the first term of Eq. 4.
func (t *Topology) PropagationDelay(i, j int) float64 {
	return t.DistanceM[i][j] / SpeedOfLight
}

// DataLatency implements Algorithm 1: transmit vol over the backbone link
// i->j, fragmenting into one-second steps whose effective bandwidth is
// (1-BER(t))*B_bb with BER(t) redrawn per step around the slot's base value.
// It returns the total data latency L_e in seconds.
//
// For very large volumes the loop is cut over to a closed form using the
// expected effective bandwidth, preserving Algorithm 1's behaviour while
// bounding CPU time; maxSteps controls the cutover.
func (s *State) DataLatency(i, j int, vol units.DataSize) float64 {
	if vol <= 0 {
		return 0
	}
	const maxSteps = 4096
	bbb := s.topo.Backbone.BytesPerSecond()
	if s.degrade != nil {
		bbb *= s.degrade[i][j]
	}
	remaining := vol.Bytes()
	le := 0.0
	for step := 0; step < maxSteps; step++ {
		ber := s.stepBER(i, j, step)
		be := (1 - ber) * bbb // bytes transferable this one-second step
		if remaining <= be {
			le += remaining / be
			return le
		}
		remaining -= be
		le += 1
	}
	// Tail: expected-bandwidth closed form.
	be := (1 - s.berBase[i][j]) * bbb
	return le + remaining/be
}

// stepBER returns the BER used for transmission step `step` on link i->j:
// the slot's base draw most of the time, with deterministic per-step jitter
// that occasionally revisits the distribution (data corrupted in bursts).
func (s *State) stepBER(i, j, step int) float64 {
	u := rng.Noise01(uint64(i)*1000003, uint64(j)*9176, uint64(step))
	if u < 0.25 { // a quarter of the steps redraw from the distribution
		idx := int(u / 0.25 * float64(len(s.topo.BER.Rates)))
		if idx >= len(s.topo.BER.Rates) {
			idx = len(s.topo.BER.Rates) - 1
		}
		return s.topo.BER.Rates[idx]
	}
	return s.berBase[i][j]
}

// GlobalLatency implements Eq. 4 for link i->j: propagation plus data
// latency.
func (s *State) GlobalLatency(i, j int, vol units.DataSize) float64 {
	if i == j {
		return 0
	}
	return s.topo.PropagationDelay(i, j) + s.DataLatency(i, j, vol)
}

// DestLatency implements Eq. 1 for destination DC j over a volume matrix:
// vol[i][j] is the data DC i must deliver to DC j this slot. The result is
// the worst-case total latency L_t^j: the slowest source's local+global path
// plus the destination's local ingest of everything it receives (Eq. 3).
//
// One extension over the literal Eq. 3: intra-DC exchanges (the matrix
// diagonal) wait on the DC's aggregate intranet fabric (IntraBW, the
// paper's 10 rooms x 10 Gb/s), while cross-DC ingest serializes on the
// single storage uplink B_L. Concentrating every VM in one DC therefore
// stays cheap per slot (the fabric is wide) but leaves the policy exposed
// to violent worst cases whenever overflow VMs create a hot inter-DC pair —
// the fluctuation structure Fig. 3 describes.
func (s *State) DestLatency(j int, vol [][]units.DataSize) float64 {
	var maxSrc float64
	var totalIn units.DataSize
	for i := 0; i < s.topo.N; i++ {
		if i == j {
			continue
		}
		v := vol[i][j]
		if v <= 0 {
			continue
		}
		totalIn += v
		l := s.topo.LocalLatency(i, v) + s.GlobalLatency(i, j, v)
		if l > maxSrc {
			maxSrc = l
		}
	}
	lt := maxSrc + s.topo.LocalLatency(j, totalIn)
	if intra := vol[j][j]; intra > 0 {
		bw := s.topo.LocalBW[j]
		if len(s.topo.IntraBW) == s.topo.N {
			bw = s.topo.IntraBW[j]
		}
		lt += bw.TransferSeconds(intra)
	}
	return lt
}

// MigrationTime returns the wall-clock time to move a VM image of the given
// size from DC i to DC j: source local egress, backbone transfer with the
// current BER, and destination local ingest. Intra-DC "migrations" cost only
// the local hops.
func (s *State) MigrationTime(i, j int, size units.DataSize) float64 {
	if i == j {
		return 0
	}
	return s.topo.LocalLatency(i, size) + s.GlobalLatency(i, j, size) + s.topo.LocalLatency(j, size)
}
