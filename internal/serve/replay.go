package serve

import (
	"sync"
	"sync/atomic"

	"geovmp/internal/fault"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// EventKind discriminates replayed operations.
type EventKind int

// Replayable operation kinds.
const (
	EvPlace EventKind = iota
	EvDepart
	EvObserve
	EvFault
)

// FaultEvent is one DC availability flip in the sequenced event log: the
// serving-side mirror of a fault.Schedule DC transition. Down marks the DC
// unavailable for admissions and forces its residents to re-place at the
// event's turn; Up restores it.
type FaultEvent struct {
	DC   int
	Down bool
}

// Event is one entry of a replayable operation log.
type Event struct {
	Kind  EventKind
	VM    VM          // EvPlace
	ID    int         // EvDepart
	Obs   Observation // EvObserve
	Fault FaultEvent  // EvFault
}

// Replay feeds an operation log through the daemon with the given worker
// parallelism. The log's order *is* the admission sequence: a contiguous
// block of sequence numbers is reserved up front and event k commits at
// block+k, so the decision stream is identical at any worker count. Every
// phase of an event runs at its turn, so workers overlap only the hand-off
// between turns and the bookkeeping around them. Returned decisions are
// indexed like events (zero-valued for non-place events and failures).
func (d *Daemon) Replay(events []Event, workers int) []Decision {
	if len(events) == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(events) {
		workers = len(events)
	}
	base := d.reserve(len(events))
	decs := make([]Decision, len(events))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(events) {
					return
				}
				seq := base + uint64(k)
				ev := &events[k]
				switch ev.Kind {
				case EvPlace:
					if dec, err := d.placeAt(seq, ev.VM); err == nil {
						decs[k] = dec
					}
				case EvDepart:
					d.departAt(seq, ev.ID)
				case EvObserve:
					d.observeAt(seq, ev.Obs)
				case EvFault:
					d.faultAt(seq, ev.Fault.DC, ev.Fault.Down)
				}
			}
		}()
	}
	wg.Wait()
	return decs
}

// EventsFromTrace compiles a workload trace into the daemon's event log,
// mirroring what the batch simulator's per-slot loop observes: for each
// slot, one observation carrying the previous interval's profiles and
// planned volumes for the slot's active set (slot 0 bootstraps from
// itself), then the slot's departures, then its arrivals — all ascending,
// so the log is deterministic.
func EventsFromTrace(src trace.Source, slots timeutil.Slot, samples int) []Event {
	arrivals, departures := trace.Diffs(src, slots)
	var events []Event
	for sl := timeutil.Slot(0); sl < timeutil.Slot(len(arrivals)); sl++ {
		obsSlot := sl
		if sl > 0 {
			obsSlot = sl - 1
		}
		ids := src.ActiveVMs(sl)
		obs := Observation{Slot: sl, VMs: make([]VMProfile, 0, len(ids))}
		for _, id := range ids {
			obs.VMs = append(obs.VMs, VMProfile{ID: id, Profile: src.SlotProfile(id, obsSlot, samples)})
		}
		for _, e := range src.PlannedVolumes(obsSlot, sl) {
			obs.Volumes = append(obs.Volumes, VolumeObs{From: e.From, To: e.To, Vol: e.Vol})
		}
		events = append(events, Event{Kind: EvObserve, Obs: obs})
		for _, id := range departures[sl] {
			events = append(events, Event{Kind: EvDepart, ID: id})
		}
		for _, id := range arrivals[sl] {
			events = append(events, Event{Kind: EvPlace, VM: VM{
				ID:      id,
				Profile: src.SlotProfile(id, obsSlot, samples),
				Image:   src.Image(id),
			}})
		}
	}
	return events
}

// InsertFaults threads a compiled fault schedule's DC transitions into an
// event log produced by EventsFromTrace: each transition lands immediately
// after its slot's observation event, so replaying the merged log sees the
// same outage timing the batch simulator applies at the top of each slot.
// Transitions past the log's horizon are appended at the end.
func InsertFaults(events []Event, trans []fault.Transition) []Event {
	if len(trans) == 0 {
		return events
	}
	out := make([]Event, 0, len(events)+len(trans))
	ti := 0
	for _, ev := range events {
		out = append(out, ev)
		if ev.Kind != EvObserve {
			continue
		}
		for ti < len(trans) && trans[ti].Slot <= ev.Obs.Slot {
			out = append(out, Event{Kind: EvFault,
				Fault: FaultEvent{DC: trans[ti].DC, Down: trans[ti].Down}})
			ti++
		}
	}
	for ; ti < len(trans); ti++ {
		out = append(out, Event{Kind: EvFault,
			Fault: FaultEvent{DC: trans[ti].DC, Down: trans[ti].Down}})
	}
	return out
}
