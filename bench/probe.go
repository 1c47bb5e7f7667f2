package main

// Every layer timing in this benchmark is taken here, around calls into the
// program's public functions: a wrapper around each cell's policy, and
// spans around column compiles, cells and daemon operations. Nothing inside
// the program is instrumented.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geovmp/internal/alloc"
	"geovmp/internal/core"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// span is one timed interval. Spans of one cell or one daemon operation
// share a trace ID; ParentID is 0 for a root.
type span struct {
	Name     string `json:"name"`
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Its methods are no-ops
// on a nil *tracer, which is the untraced run.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// id reserves a span ID, so children recorded before their parent closes
// can name it.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records span id over [start, end).
func (t *tracer) add(id uint64, name, traceID string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, TraceID: traceID, SpanID: id, ParentID: parent,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probe wraps one cell's policy. It times every Place and Allocate — a
// slot's decision latency needs them even untraced — forwards StartEpoch
// to policies that take it, and reads the proposed controller's own
// embedding counters. A probe is used by one cell's goroutine only.
type probe struct {
	inner   policy.Policy
	ctl     *core.Controller // the inner policy when it is the proposed controller
	tr      *tracer
	traceID string
	cellID  uint64
	start   time.Time

	slots     int
	slotOpen  bool          // the slot in progress is measured
	slotNS    time.Duration // decision time of the slot in progress
	decisions []float64     // ms per measured slot: Place plus the slot's Allocates
	places    []float64     // ms per measured slot's Place
	placeNS   time.Duration
	allocNS   time.Duration
	vmSlots   int
	iters     int
	overflow  int
	active    int
	end       time.Time
}

var _ policy.EpochAware = (*probe)(nil)

func newProbe(inner policy.Policy, tr *tracer, traceID string) *probe {
	p := &probe{inner: inner, tr: tr, traceID: traceID, cellID: tr.id(), start: time.Now()}
	p.ctl, _ = inner.(*core.Controller)
	return p
}

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Place(in *policy.Input) policy.Placement {
	p.closeSlot()
	var embedNS int64
	if p.ctl != nil {
		embedNS = p.ctl.EmbedNS
	}
	t0 := time.Now()
	pl := p.inner.Place(in)
	t1 := time.Now()
	d := t1.Sub(t0)
	p.tr.add(p.tr.id(), "place", p.traceID, p.cellID, t0, t1)
	p.placeNS += d
	p.slots++
	p.vmSlots += len(in.ActiveVMs)
	// Latency samples skip the warm-up slots the simulator leaves out of
	// its own metrics: the embedding's cold start is not a steady decision.
	if in.Slot >= sim.DefaultWarmupSlots {
		p.places = append(p.places, ms(d))
		p.slotNS, p.slotOpen = d, true
	}
	if p.ctl != nil && p.ctl.EmbedNS != embedNS {
		p.iters += p.ctl.LastEmbedIters
	}
	return pl
}

func (p *probe) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	t0 := time.Now()
	a := p.inner.Allocate(d, ids, ps)
	t1 := time.Now()
	p.tr.add(p.tr.id(), "allocate", p.traceID, p.cellID, t0, t1)
	p.allocNS += t1.Sub(t0)
	p.slotNS += t1.Sub(t0)
	p.overflow += a.Overflowed
	p.active += a.Active
	return a
}

// StartEpoch forwards the rolling-horizon signal, so a wrapped epoch-aware
// policy re-optimises exactly as it would unwrapped.
func (p *probe) StartEpoch(epoch int, start timeutil.Slot) {
	if ea, ok := p.inner.(policy.EpochAware); ok {
		ea.StartEpoch(epoch, start)
	}
}

func (p *probe) closeSlot() {
	if p.slotOpen {
		p.decisions = append(p.decisions, ms(p.slotNS))
		p.slotOpen = false
	}
}

// finish closes the cell at t, when the engine reported it complete.
func (p *probe) finish(t time.Time, parent uint64) {
	p.closeSlot()
	p.end = t
	p.tr.add(p.cellID, "cell", p.traceID, parent, p.start, t)
}

func (p *probe) wall() time.Duration { return p.end.Sub(p.start) }
