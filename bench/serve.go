package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geovmp"
)

// serveWorkload drives the online daemon with one scenario's event log
// (per slot: an observation, then departures, then arrivals). The first
// slot's arrivals seed the fleet; then an open-loop phase issues the next
// events at a fixed rate, as independent operators would, and closed-loop
// rounds replay the whole log on fresh daemons, each caller issuing its
// next event once the previous one returned.
type serveWorkload struct {
	id      string
	preset  string
	scale   float64
	horizon geovmp.Horizon
	rate    float64 // open-loop events per second
}

// serveOpen's 500 events/s is far below the daemon's closed-loop rate
// (about 8k events/s on a 2-core box), so the open loop measures decision
// latency, not queueing.
var serveOpen = serveWorkload{id: "serve-open", preset: "geo5dc-dynamic", scale: 0.08,
	horizon: geovmp.Days(4), rate: 500}

// openShare is the share of the measured seconds given to the open loop;
// the closed-loop rounds, which give ops_per_s, take the rest.
const openShare = 0.5

func (w serveWorkload) name() string { return w.id }

func (w serveWorkload) spec(seed uint64) geovmp.Spec {
	spec := geovmp.MustPreset(w.preset)
	spec.Scale = w.scale
	spec.Seed = seed
	spec.Horizon = w.horizon
	return spec
}

func (w serveWorkload) run(cfg runConfig) *report {
	r := newReport()
	var (
		sc     *geovmp.Scenario
		events []geovmp.Event
		d      *geovmp.Daemon
	)
	setup, err := setUp(cfg.seconds/10, func() (err error) {
		if sc, err = geovmp.NewScenario(w.spec(cfg.seed)); err != nil {
			return err
		}
		events = geovmp.EventsFromWorkload(sc.Workload, w.horizon, sc.ProfileSamples)
		d, err = geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
		return err
	})
	if err != nil {
		r.check("set-up", err)
		return r
	}
	r.set("setup_s", setup)
	dcs := len(sc.Fleet)
	newDaemon := func() *geovmp.Daemon {
		d, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
		if err != nil {
			panic(err) // the same options built a daemon in set-up
		}
		return d
	}

	var refRate float64
	if cfg.tr != nil {
		// Untraced reference round, the baseline of the tracing overhead.
		s, ts := replayAll(newDaemon(), events, cfg.procs)
		r.attempted += len(events)
		r.failed += s.refused()
		refRate = float64(len(events)) / elapsed(ts).Seconds()
		r.check("untraced reference round", s.check(dcs, events))
	}

	// Open loop: seed the fleet with the first slot's events, then issue
	// the following ones on schedule.
	warm := firstSlotEnd(events)
	seeding := newSession(d, events[:warm])
	closedLoop(warm, cfg.procs, seeding.op)
	openDur := time.Duration(float64(cfg.seconds) * openShare)
	n := min(int(w.rate*openDur.Seconds()), len(events)-warm)
	open := newSession(d, events[warm:warm+n])
	ts := openLoop(n, cfg.procs, w.rate, open.op)
	d.Drain()
	r.attempted += warm + n
	r.failed += seeding.refused() + open.refused()
	r.check("open loop: seeding the fleet", seeding.checkOps(dcs))
	r.check("open loop: decisions, refusals and residents", errors.Join(open.checkOps(dcs), checkResidents(d, events[:warm+n])))
	recordSpans(cfg.tr, "open", events[warm:], ts)

	// A place misses the daemon's SLO when it failed, was refused, or took
	// longer than the SLO from its due time.
	slo := d.Options().SLO
	missed := 0
	var latency, service, late []float64
	var observe, depart []float64
	for k, t := range ts {
		switch open.events[k].Kind {
		case geovmp.EvPlace:
			if open.errs[k] != nil || t.done.Sub(t.due) > slo {
				missed++
			}
			latency = append(latency, ms(t.done.Sub(t.due)))
			service = append(service, ms(t.done.Sub(t.sent)))
			late = append(late, ms(t.sent.Sub(t.due)))
		case geovmp.EvObserve:
			observe = append(observe, ms(t.done.Sub(t.sent)))
		case geovmp.EvDepart:
			depart = append(depart, ms(t.done.Sub(t.sent)))
		}
	}

	// Closed loop: whole-log rounds on fresh daemons.
	var rates []float64
	var closedErrs []error
	closedStart := time.Now()
	for round := 0; round == 0 || time.Since(closedStart) < cfg.seconds-openDur; round++ {
		s, ts := replayAll(newDaemon(), events, cfg.procs)
		rates = append(rates, float64(len(events))/elapsed(ts).Seconds())
		r.attempted += len(events)
		r.failed += s.refused()
		if err := s.check(dcs, events); err != nil {
			closedErrs = append(closedErrs, fmt.Errorf("round %d: %w", round, err))
		}
		recordSpans(cfg.tr, fmt.Sprintf("closed%d", round), events, ts)
		runtime.GC() // outside the timed round: keep finished daemons out of the next one's peak RSS
	}
	r.check("closed loop: decisions, refusals and residents", errors.Join(closedErrs...))

	// The median round, so that a burst of load from outside the process
	// during one round does not move the result.
	rate := median(rates)
	r.set("ops_per_s", rate)
	r.notePct("open-loop place latency", latency, 50)
	r.notePct("open-loop place latency", latency, 99)
	r.note("slo_miss_frac %.6g (of %d places, SLO %v)", float64(missed)/float64(max(len(latency), 1)), len(latency), slo)
	r.note("failed_frac %.6g of %d operations", float64(r.failed)/float64(r.attempted), r.attempted)
	r.note("open loop %d events at %g/s after %d seeding events; %d closed-loop rounds of %d events", n, w.rate, warm, len(rates), len(events))
	setMaxRSS(r)

	if cfg.tr != nil {
		r.setPct("serve.place_ms_p50", service, 50)
		r.setPct("serve.place_ms_p99", service, 99)
		r.setPct("serve.observe_ms_p50", observe, 50)
		r.set("serve.observe_ms_max", maxOf(observe))
		r.set("serve.observe_n", float64(len(observe)))
		r.setPct("serve.depart_ms_p99", depart, 99)
		r.set("serve.depart_n", float64(len(depart)))
		b := d.Board()
		r.set("serve.reconciles", float64(b.Counter("serve_reconciles_total").Value()))
		r.set("serve.overflows", float64(b.Counter("serve_overflows_total").Value()))
		r.set("serve.rejections", float64(b.Counter("serve_rejections_total").Value()))
		r.setPct("loadgen.late_ms_p50", late, 50)
		r.setPct("loadgen.late_ms_p99", late, 99)
		r.set("loadgen.place_n", float64(len(late)))
		r.set("bench.trace_overhead_pct", (refRate-rate)/refRate*100)
	}
	return r
}

// replayAll issues the whole log closed-loop against d and drains it.
func replayAll(d *geovmp.Daemon, events []geovmp.Event, callers int) (*session, []timing) {
	s := newSession(d, events)
	ts := closedLoop(len(events), callers, s.op)
	d.Drain()
	return s, ts
}

// firstSlotEnd returns the index of the second observation, where the
// log's first slot ends.
func firstSlotEnd(events []geovmp.Event) int {
	seen := 0
	for i, ev := range events {
		if ev.Kind == geovmp.EvObserve {
			if seen++; seen == 2 {
				return i
			}
		}
	}
	return len(events)
}

// timing is one issued operation: when it was due, sent and done.
type timing struct{ due, sent, done time.Time }

func elapsed(ts []timing) time.Duration {
	if len(ts) == 0 {
		return 0
	}
	first, last := ts[0].sent, ts[0].done
	for _, t := range ts {
		if t.sent.Before(first) {
			first = t.sent
		}
		if t.done.After(last) {
			last = t.done
		}
	}
	return last.Sub(first)
}

// openLoop issues ops 0..n-1 on a fixed schedule, op k due at start +
// k/rate. Sender j owns the ops k ≡ j (mod senders) and issues each at its
// due time or, once it has fallen behind, at once; latency counts from the
// due time, so a stall is charged to every op it delays.
func openLoop(n, senders int, rate float64, op func(k int)) []timing {
	ts := make([]timing, n)
	start := time.Now()
	var wg sync.WaitGroup
	for j := 0; j < senders; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := j; k < n; k += senders {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				waitUntil(due)
				ts[k].due, ts[k].sent = due, time.Now()
				op(k)
				ts[k].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return ts
}

// waitUntil sleeps until a millisecond before t, then yields until t. The
// runtime's timers can wake up to a millisecond late, and that lateness
// would otherwise be charged to every op as if the daemon had caused it.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - time.Millisecond)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop issues ops 0..n-1 from callers that each take the next op in
// order and issue it once their previous one returned.
func closedLoop(n, callers int, op func(k int)) []timing {
	ts := make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for j := 0; j < callers; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				ts[k].sent = time.Now()
				ts[k].due = ts[k].sent
				op(k)
				ts[k].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return ts
}

// session issues one range of the event log against one daemon. Each
// index is written by the one goroutine that issues it.
type session struct {
	d       *geovmp.Daemon
	events  []geovmp.Event
	placed  []chan struct{} // closed once the Place at that index returned
	placeAt map[int]int     // VM id -> index of its Place in the range
	decs    []geovmp.Decision
	errs    []error
	gone    []bool // the Depart at that index found its VM resident
}

func newSession(d *geovmp.Daemon, events []geovmp.Event) *session {
	s := &session{d: d, events: events, placed: make([]chan struct{}, len(events)), placeAt: map[int]int{},
		decs: make([]geovmp.Decision, len(events)), errs: make([]error, len(events)), gone: make([]bool, len(events))}
	for k, ev := range events {
		if ev.Kind == geovmp.EvPlace {
			s.placed[k] = make(chan struct{})
			s.placeAt[ev.VM.ID] = k
		}
	}
	return s
}

// op issues event k. A Depart first waits for its VM's Place in the same
// range to return: only the client that placed a VM releases it.
func (s *session) op(k int) {
	ev := s.events[k]
	switch ev.Kind {
	case geovmp.EvPlace:
		s.decs[k], s.errs[k] = s.d.Place(ev.VM)
		close(s.placed[k])
	case geovmp.EvDepart:
		if pk, ok := s.placeAt[ev.ID]; ok && pk < k {
			<-s.placed[pk]
		}
		s.gone[k], s.errs[k] = s.d.Depart(ev.ID)
	case geovmp.EvObserve:
		s.errs[k] = s.d.Observe(ev.Obs)
	default:
		s.errs[k] = fmt.Errorf("event kind %v is not issued by this benchmark", ev.Kind)
	}
}

func isRefusal(err error) bool {
	return errors.Is(err, geovmp.ErrQueueFull) || errors.Is(err, geovmp.ErrDraining)
}

func (s *session) refused() int {
	n := 0
	for _, err := range s.errs {
		if isRefusal(err) {
			n++
		}
	}
	return n
}

// checkOps checks every issued op: a decision lands in one of the fleet's
// dcs, every error is a counted refusal, and every Depart found its VM.
func (s *session) checkOps(dcs int) error {
	var errs []string
	for k, ev := range s.events {
		switch err := s.errs[k]; {
		case err != nil && !isRefusal(err):
			errs = append(errs, fmt.Sprintf("event %d: %v", k, err))
		case err != nil: // a refusal, counted as failed by the caller
		case ev.Kind == geovmp.EvPlace && (s.decs[k].DC < 0 || s.decs[k].DC >= dcs):
			errs = append(errs, fmt.Sprintf("VM %d placed in DC %d of %d", ev.VM.ID, s.decs[k].DC, dcs))
		case ev.Kind == geovmp.EvDepart && !s.gone[k]:
			errs = append(errs, fmt.Sprintf("VM %d was not resident at its departure", ev.ID))
		}
	}
	return errList(errs)
}

// check runs checkOps and compares the drained daemon's residents with the
// survivors of log, the whole prefix it has seen.
func (s *session) check(dcs int, log []geovmp.Event) error {
	return errors.Join(s.checkOps(dcs), checkResidents(s.d, log))
}

// checkResidents compares d's residents with the VMs log places and does
// not depart.
func checkResidents(d *geovmp.Daemon, log []geovmp.Event) error {
	alive := map[int]bool{}
	for _, ev := range log {
		switch ev.Kind {
		case geovmp.EvPlace:
			alive[ev.VM.ID] = true
		case geovmp.EvDepart:
			delete(alive, ev.ID)
		}
	}
	want := make([]int, 0, len(alive))
	for id := range alive {
		want = append(want, id)
	}
	slices.Sort(want)
	if got := d.Residents(); !slices.Equal(got, want) {
		return fmt.Errorf("daemon holds %d residents, the log leaves %d", len(got), len(want))
	}
	return nil
}

// recordSpans adds one span per op, due to done, with its queue wait and
// service as children.
func recordSpans(tr *tracer, phase string, events []geovmp.Event, ts []timing) {
	if tr == nil {
		return
	}
	kinds := map[geovmp.EventKind]string{geovmp.EvPlace: "op.place", geovmp.EvDepart: "op.depart", geovmp.EvObserve: "op.observe"}
	for k, t := range ts {
		traceID := fmt.Sprintf("serve/%s/%d", phase, k)
		id := tr.id()
		tr.add(id, kinds[events[k].Kind], traceID, 0, t.due, t.done)
		tr.add(tr.id(), "wait", traceID, id, t.due, t.sent)
		tr.add(tr.id(), "service", traceID, id, t.sent, t.done)
	}
}
