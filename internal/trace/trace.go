// Package trace generates the synthetic cloud workload the simulator runs:
// virtual machines with 5-second CPU-utilization traces, Poisson arrivals,
// exponential lifetimes, service groupings, and the bidirectional
// time-varying inter-VM data volumes that define data correlation.
//
// The original evaluation samples a real data center's VM utilizations every
// 5 seconds for one day and extends the day to a week "by adding statistical
// variance with the same mean as the original traces". Real traces are not
// available, so this package synthesizes the properties the algorithms
// actually exploit (README, "Deviations from the paper", item 1):
//
//   - Scale-out VMs (web-search-, MapReduce-like) have strong diurnal peaks
//     with fast client-driven variability. VMs of the same service share the
//     peak phase, so their CPU loads are highly correlated — exactly the VMs
//     a correlation-aware packer must separate.
//   - HPC VMs run near-flat high utilization; batch VMs run in night
//     windows.
//   - One base day of parameters is drawn per VM; days 2..7 rescale the
//     base day by a unit-mean random factor, mirroring the paper's
//     extension.
//   - Intra-service VM pairs exchange data in both directions with per-pair
//     log-normal base volumes (mean 10 MB, log-variance uniform in [1,4],
//     the paper's distribution) modulated by the service's time-varying
//     activity — bidirectional data correlation that changes at runtime.
//
// All sampling is lazy and hash-based: Util(vm, step) is a pure function of
// the workload seed, so a week of 5 s samples for thousands of VMs costs no
// memory.
package trace

import (
	"fmt"
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Class labels the application family of a VM, which determines the shape of
// its utilization trace.
type Class int

// The workload mix of the paper's motivating examples.
const (
	ClassWebSearch Class = iota // scale-out, diurnal, fast-varying
	ClassMapReduce              // scale-out, bursty
	ClassHPC                    // flat high utilization
	ClassBatch                  // night-window jobs
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassWebSearch:
		return "websearch"
	case ClassMapReduce:
		return "mapreduce"
	case ClassHPC:
		return "hpc"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// VM is one virtual machine of the workload. Fields are immutable once the
// workload is built.
type VM struct {
	ID      int
	Class   Class
	Service int            // index into Workload.Services
	Arrival timeutil.Slot  // first slot the VM is active
	Depart  timeutil.Slot  // first slot the VM is gone (exclusive end)
	Image   units.DataSize // migration image size (2/4/8 GB)

	// Trace parameters (one "base day", per the paper's methodology).
	mean     float64 // mean utilization of a reference core
	amp      float64 // diurnal amplitude
	peakHour float64 // hour-of-day of the diurnal peak, shared per service
	fastAmp  float64 // white 5 s noise amplitude
	slowAmp  float64 // ~10 min smooth noise amplitude
	burstAmp float64 // extra load during burst windows (MapReduce)
	dayVar   float64 // day-to-day variance of the unit-mean day factor
	seed     uint64
}

// ActiveAt reports whether the VM exists during slot sl.
func (v *VM) ActiveAt(sl timeutil.Slot) bool {
	return sl >= v.Arrival && sl < v.Depart
}

// VolumeEntry is one directed inter-VM transfer demand for a slot.
type VolumeEntry struct {
	From, To int
	Vol      units.DataSize
}

// pair is a directed communication edge inside a service with its base
// volume (bytes per slot before modulation).
type pair struct {
	from, to int
	base     float64
}

// Service is a group of cooperating VMs: they share the CPU peak phase
// (high CPU-load correlation) and exchange data (high data correlation) —
// the two opposed forces of the placement problem.
type Service struct {
	ID       int
	Class    Class
	PeakHour float64
	Template int // index into Config.Templates, -1 for the built-in classes
	Members  []int
	pairs    []pair
}

// PhaseMix re-weights the class mix for VMs arriving at or after FromSlot —
// the building block of non-stationary (diurnal, regime-shifting) workloads.
// Existing VMs keep their class until departure, so the fleet's mix turns
// over at the lifetime scale rather than jumping discontinuously.
type PhaseMix struct {
	FromSlot timeutil.Slot
	Weights  []float64 // class-order weights, like Config.ClassWeights
}

// Config parameterizes workload generation. Zero values select the defaults
// listed on each field.
type Config struct {
	Seed           uint64
	Horizon        timeutil.Horizon
	InitialVMs     int     // VMs present at slot 0 (default 200)
	ArrivalPerSlot float64 // Poisson arrival rate per slot (default InitialVMs/50)
	MeanLifeSlots  float64 // exponential mean lifetime in slots (default 48)
	MeanServiceVMs float64 // mean VMs per service (default 5)
	MaxPairsPerVM  int     // communication degree cap inside a service (default 4)
	VolumeMeanMB   float64 // log-normal linear mean per pair per slot (default 10, the paper's)
	ClassWeights   []float64
	// Phases optionally schedules class-mix shifts over the horizon: a VM
	// arriving at slot sl draws its service's class from the last phase
	// whose FromSlot <= sl (ClassWeights before the first phase). Empty
	// keeps the stationary mix — and the generator's output bit-identical
	// to a phase-free Config.
	Phases []PhaseMix
	// ArrivalWave modulates the Poisson arrival rate diurnally with the
	// given amplitude in [0, 1): rate(sl) = ArrivalPerSlot x
	// (1 + wave*cos(2*pi*(h-14)/24)), peaking mid-afternoon UTC. 0 keeps
	// arrivals stationary.
	ArrivalWave float64
	// Templates optionally calibrates the generator to fitted usage
	// templates (see FitTemplates): new services draw a template by
	// weight instead of a class from ClassWeights, and member VMs draw
	// their trace parameters around the fitted values instead of the
	// built-in class ranges. Empty keeps the paper's synthetic families —
	// and the generator's output bit-identical to a template-free Config.
	Templates []UsageTemplate
}

func (c *Config) applyDefaults() {
	if c.Horizon.Slots == 0 {
		c.Horizon = timeutil.Week()
	}
	if c.InitialVMs == 0 {
		c.InitialVMs = 200
	}
	if c.ArrivalPerSlot == 0 {
		c.ArrivalPerSlot = float64(c.InitialVMs) / 50
	}
	if c.MeanLifeSlots == 0 {
		c.MeanLifeSlots = 48
	}
	if c.MeanServiceVMs == 0 {
		c.MeanServiceVMs = 5
	}
	if c.MaxPairsPerVM == 0 {
		c.MaxPairsPerVM = 4
	}
	if c.VolumeMeanMB == 0 {
		c.VolumeMeanMB = 10
	}
	if len(c.ClassWeights) == 0 {
		c.ClassWeights = []float64{0.40, 0.25, 0.20, 0.15}
	}
}

// Workload is the generated experiment workload. It is immutable after New
// and safe for concurrent readers.
type Workload struct {
	cfg      Config
	vms      []*VM
	services []*Service
	active   [][]int // per slot, sorted ids of active VMs
}

// New generates a workload from cfg. Generation is deterministic in
// cfg.Seed.
func New(cfg Config) *Workload {
	cfg.applyDefaults()
	w := &Workload{cfg: cfg}
	src := rng.New(cfg.Seed).Derive("workload")
	arrivalSrc := src.Derive("arrivals")
	lifeSrc := src.Derive("lifetimes")
	classSrc := src.Derive("classes")
	svcSrc := src.Derive("services")
	volSrc := src.Derive("volumes")
	imgSrc := src.Derive("images")
	paramSrc := src.Derive("params")

	spawn := func(arrival timeutil.Slot) {
		id := len(w.vms)
		life := timeutil.Slot(math.Ceil(lifeSrc.Exp(cfg.MeanLifeSlots)))
		if life < 1 {
			life = 1
		}
		svc := w.pickService(svcSrc, classSrc, cfg.mixAt(arrival))
		s := w.services[svc]
		vm := &VM{
			ID:      id,
			Class:   s.Class,
			Service: svc,
			Arrival: arrival,
			Depart:  arrival + life,
			Image:   drawImage(imgSrc),
			seed:    rng.Hash(cfg.Seed, uint64(id), 0xA11CE),
		}
		var tmpl *UsageTemplate
		if s.Template >= 0 {
			tmpl = &cfg.Templates[s.Template]
		}
		vm.parameterize(s, tmpl, paramSrc)
		w.vms = append(w.vms, vm)
		w.connect(s, vm, volSrc)
		s.Members = append(s.Members, id)
	}

	for i := 0; i < cfg.InitialVMs; i++ {
		spawn(0)
	}
	for sl := timeutil.Slot(1); sl < cfg.Horizon.Slots; sl++ {
		n := arrivalSrc.Poisson(cfg.rateAt(sl))
		for i := 0; i < n; i++ {
			spawn(sl)
		}
	}
	w.index()
	return w
}

// mixAt returns the class mix in force for a VM arriving at sl: the last
// scheduled phase covering sl, or the stationary ClassWeights.
func (c *Config) mixAt(sl timeutil.Slot) []float64 {
	weights := c.ClassWeights
	for _, p := range c.Phases {
		if sl >= p.FromSlot {
			weights = p.Weights
		}
	}
	return weights
}

// rateAt returns the Poisson arrival rate for slot sl under the optional
// diurnal wave (stationary when ArrivalWave is 0).
func (c *Config) rateAt(sl timeutil.Slot) float64 {
	rate := c.ArrivalPerSlot
	if c.ArrivalWave > 0 {
		h := float64(sl.HourUTC())
		rate *= 1 + c.ArrivalWave*math.Cos((h-14)/24*2*math.Pi)
		if rate < 0 {
			rate = 0
		}
	}
	return rate
}

// pickService returns the service a new VM joins, creating one when the
// geometric coin says so (expected size MeanServiceVMs). New services draw
// their class from the arrival slot's mix — or, when the workload is
// template-calibrated, a fitted template by weight.
func (w *Workload) pickService(svcSrc, classSrc *rng.Source, mix []float64) int {
	if len(w.services) == 0 || svcSrc.Float64() < 1/w.cfg.MeanServiceVMs {
		id := len(w.services)
		s := &Service{ID: id, Template: -1}
		if ts := w.cfg.Templates; len(ts) > 0 {
			weights := make([]float64, len(ts))
			for i, t := range ts {
				weights[i] = t.Weight
			}
			s.Template = classSrc.Categorical(weights)
			t := ts[s.Template]
			s.Class = t.Class
			s.PeakHour = t.PeakHour + svcSrc.Range(-1.5, 1.5)
		} else {
			s.Class = Class(classSrc.Categorical(mix))
			s.PeakHour = servicePeakHour(s.Class, svcSrc)
		}
		w.services = append(w.services, s)
		return id
	}
	return svcSrc.Intn(len(w.services))
}

// servicePeakHour draws the diurnal peak of a service. Interactive services
// cluster in the evening (user-driven), batch in the night, HPC anywhere.
func servicePeakHour(c Class, src *rng.Source) float64 {
	switch c {
	case ClassWebSearch:
		return 18 + src.Range(-3, 3)
	case ClassMapReduce:
		return 14 + src.Range(-4, 4)
	case ClassBatch:
		return 2 + src.Range(-2, 2)
	default:
		return src.Range(0, 24)
	}
}

// parameterize draws the VM's base-day trace parameters from its class, or
// around the service's fitted template when the workload is calibrated
// (±15% on the level, ±20% on the noise terms, keeping per-VM diversity
// without leaving the fitted family).
func (v *VM) parameterize(s *Service, tmpl *UsageTemplate, src *rng.Source) {
	v.peakHour = s.PeakHour
	if tmpl != nil {
		v.mean = units.Clamp(tmpl.Mean*src.Range(0.85, 1.15), 0.02, 0.95)
		v.amp = tmpl.Amp * src.Range(0.8, 1.2)
		v.fastAmp = tmpl.FastAmp * src.Range(0.8, 1.2)
		v.slowAmp = tmpl.SlowAmp * src.Range(0.8, 1.2)
		v.dayVar = tmpl.DayVar
		return
	}
	switch v.Class {
	case ClassWebSearch:
		v.mean = src.Range(0.25, 0.45)
		v.amp = src.Range(0.15, 0.30)
		v.fastAmp = src.Range(0.06, 0.14)
		v.slowAmp = src.Range(0.04, 0.10)
		v.dayVar = 0.15
	case ClassMapReduce:
		v.mean = src.Range(0.20, 0.40)
		v.amp = src.Range(0.10, 0.20)
		v.fastAmp = src.Range(0.04, 0.10)
		v.slowAmp = src.Range(0.04, 0.08)
		v.burstAmp = src.Range(0.20, 0.40)
		v.dayVar = 0.20
	case ClassHPC:
		v.mean = src.Range(0.55, 0.80)
		v.amp = src.Range(0.0, 0.05)
		v.fastAmp = src.Range(0.01, 0.04)
		v.slowAmp = src.Range(0.01, 0.03)
		v.dayVar = 0.05
	case ClassBatch:
		v.mean = src.Range(0.30, 0.55)
		v.amp = src.Range(0.20, 0.35)
		v.fastAmp = src.Range(0.02, 0.06)
		v.slowAmp = src.Range(0.02, 0.06)
		v.dayVar = 0.25
	}
}

// drawImage samples the migration image size: 2, 4 and 8 GB with 60/30/10 %
// probability, per the paper's setup.
func drawImage(src *rng.Source) units.DataSize {
	switch src.Categorical([]float64{0.60, 0.30, 0.10}) {
	case 0:
		return 2 * units.Gigabyte
	case 1:
		return 4 * units.Gigabyte
	default:
		return 8 * units.Gigabyte
	}
}

// connect wires a new member into its service's communication graph with up
// to MaxPairsPerVM peers, each direction drawing an independent log-normal
// base volume (bidirectional asymmetry).
func (w *Workload) connect(s *Service, vm *VM, volSrc *rng.Source) {
	n := len(s.Members)
	if n == 0 {
		return
	}
	deg := w.cfg.MaxPairsPerVM
	if deg > n {
		deg = n
	}
	perm := volSrc.Perm(n)
	meanBytes := w.cfg.VolumeMeanMB * 1e6
	for k := 0; k < deg; k++ {
		peer := s.Members[perm[k]]
		sigma2 := volSrc.Range(1, 4) // the paper's U[1,4] log-variance
		s.pairs = append(s.pairs,
			pair{from: vm.ID, to: peer, base: volSrc.LogNormalFromMean(meanBytes, sigma2)},
			pair{from: peer, to: vm.ID, base: volSrc.LogNormalFromMean(meanBytes, sigma2)},
		)
	}
}

// index precomputes the per-slot active lists.
func (w *Workload) index() {
	slots := int(w.cfg.Horizon.Slots)
	w.active = make([][]int, slots)
	for _, vm := range w.vms {
		for sl := vm.Arrival; sl < vm.Depart && int(sl) < slots; sl++ {
			w.active[sl] = append(w.active[sl], vm.ID)
		}
	}
}

// NumVMs returns the total number of VMs ever created.
func (w *Workload) NumVMs() int { return len(w.vms) }

// NumServices returns the number of services.
func (w *Workload) NumServices() int { return len(w.services) }

// VM returns the VM with the given id.
func (w *Workload) VM(id int) *VM { return w.vms[id] }

// ActiveVMs returns the ids of VMs active during slot sl in ascending order.
// The returned slice is shared; callers must not modify it.
func (w *Workload) ActiveVMs(sl timeutil.Slot) []int {
	if int(sl) >= len(w.active) || sl < 0 {
		return nil
	}
	return w.active[sl]
}

// dayFactor is the unit-mean day-to-day rescaling that extends the base day
// to a week (the paper's "statistical variance with the same mean").
func (v *VM) dayFactor(day int) float64 {
	f := 1 + v.dayVar*rng.NoiseNorm(v.seed, 0xDA7, uint64(day))
	return units.Clamp(f, 0.4, 1.6)
}

// Util returns the VM's CPU demand, in fractions of a reference core, at
// fine step st. It is a pure function of the workload seed: the one-step
// case of the row kernel (see FillUtil).
func (w *Workload) Util(id int, st timeutil.Step) float64 {
	var (
		step = [1]timeutil.Step{st}
		f    [3]float64
		key  [1]uint64
		seg  [1]gridSeg
		u    [1]float64
	)
	g := gridOf(step[:], f[:], key[:], seg[:], w.vms[id].burstAmp > 0)
	w.fillRow(u[:], id, &g)
	return u[0]
}

// SlotProfile returns n samples of the VM's utilization spread evenly across
// slot sl. Correlation metrics consume these downsampled profiles.
func (w *Workload) SlotProfile(id int, sl timeutil.Slot, n int) []float64 {
	prof := make([]float64, n)
	w.FillSlotProfile(prof, id, sl)
	return prof
}

// profileStep returns the step of sample i of an n-sample profile of slot
// sl: samples are strided evenly from the slot's first step.
func profileStep(sl timeutil.Slot, i, n int) timeutil.Step {
	stride := timeutil.StepsPerSlot / n
	if stride < 1 {
		stride = 1
	}
	return sl.Start() + timeutil.Step(i*stride)
}

// FillSlotProfile is the allocation-free variant of SlotProfile: one
// row-kernel pass over the profile's strided step grid, which lives on the
// stack up to 16 samples.
func (w *Workload) FillSlotProfile(dst []float64, id int, sl timeutil.Slot) {
	n := len(dst)
	var (
		step [16]timeutil.Step
		f    [48]float64
		key  [16]uint64
		segs [16]gridSeg
	)
	steps, fs, keys := step[:], f[:], key[:]
	if n > len(step) { // longer profiles take their grid from the heap
		steps, fs, keys = make([]timeutil.Step, n), make([]float64, 3*n), make([]uint64, n)
	}
	steps = steps[:n]
	for i := range steps {
		steps[i] = profileStep(sl, i, n)
	}
	g := gridOf(steps, fs, keys, segs[:], true)
	w.fillRow(dst, id, &g)
}

// serviceActivity is the unit-mean time-varying modulation of a service's
// data exchange: diurnal around the service peak plus slow noise. It changes
// every slot, which is what makes data correlation "change at runtime
// depending on real-time information".
func (w *Workload) serviceActivity(s *Service, sl timeutil.Slot) float64 {
	h := float64(sl.HourUTC())
	diurnal := 1 + 0.6*math.Cos((h-s.PeakHour)/24*2*math.Pi)
	noise := 0.7 + 0.6*rng.SmoothNoise(float64(sl)/3, uint64(s.ID), 0xAC71)
	return diurnal * noise
}

// Volumes returns the directed inter-VM data volumes for slot sl, covering
// every communicating pair whose endpoints are both active. The slice is
// freshly allocated and sorted by construction order (stable across calls).
func (w *Workload) Volumes(sl timeutil.Slot) []VolumeEntry {
	return w.volumes(sl, sl)
}

// PlannedVolumes is the controller's view of data correlation: volumes for
// every pair whose endpoints are active at slot act, priced at slot obs's
// service activity. Newly arrived VMs have no realized traffic yet, but
// their service membership — hence who they will talk to and roughly how
// much — is placement-time knowledge (the paper's controllers receive the
// "data communications" of the fleet), so they still attract their peers.
func (w *Workload) PlannedVolumes(obs, act timeutil.Slot) []VolumeEntry {
	return w.volumes(obs, act)
}

func (w *Workload) volumes(obs, act timeutil.Slot) []VolumeEntry {
	var out []VolumeEntry
	for _, s := range w.services {
		if len(s.pairs) == 0 {
			continue
		}
		activity := w.serviceActivity(s, obs)
		for _, p := range s.pairs {
			if !w.vms[p.from].ActiveAt(act) || !w.vms[p.to].ActiveAt(act) {
				continue
			}
			// Direction-specific jitter keeps the two directions of a pair
			// distinct per slot (bidirectional correlation).
			jit := 0.6 + 0.8*rng.Noise01(uint64(p.from)*0x1f3, uint64(p.to)*0x9d7, uint64(obs))
			out = append(out, VolumeEntry{
				From: p.from,
				To:   p.to,
				Vol:  units.DataSize(p.base * activity * jit),
			})
		}
	}
	return out
}

// Image returns the migration image size of VM id.
func (w *Workload) Image(id int) units.DataSize { return w.vms[id].Image }

// Slots returns the number of slots the workload covers.
func (w *Workload) Slots() timeutil.Slot { return w.cfg.Horizon.Slots }
