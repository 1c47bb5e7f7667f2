package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"geovmp/internal/httpx"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// JSON wire types. Field names are stable API.

type flowJSON struct {
	Peer     int     `json:"peer"`
	ToPeer   float64 `json:"to_peer,omitempty"`
	FromPeer float64 `json:"from_peer,omitempty"`
}

type placeRequest struct {
	ID      int        `json:"id"`
	Profile []float64  `json:"profile"`
	Flows   []flowJSON `json:"flows,omitempty"`
	Image   float64    `json:"image,omitempty"`
}

type placeResponse struct {
	ID         int     `json:"id"`
	DC         int     `json:"dc"`
	Server     int     `json:"server"`
	Overflowed bool    `json:"overflowed,omitempty"`
	Seq        uint64  `json:"seq"`
	LatencyMS  float64 `json:"latency_ms"`
}

type departRequest struct {
	ID int `json:"id"`
}

type departResponse struct {
	ID      int  `json:"id"`
	Removed bool `json:"removed"`
}

type observeRequest struct {
	Slot    int64           `json:"slot"`
	VMs     []vmProfileJSON `json:"vms,omitempty"`
	Volumes []volumeJSON    `json:"volumes,omitempty"`
}

type vmProfileJSON struct {
	ID      int       `json:"id"`
	Profile []float64 `json:"profile"`
}

type volumeJSON struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Vol  float64 `json:"vol"`
}

type healthResponse struct {
	Status    string  `json:"status"`
	Residents int     `json:"residents"`
	SLOMS     float64 `json:"slo_ms"`
	P99MS     float64 `json:"p99_ms"`
	Draining  bool    `json:"draining"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/place    {id, profile, flows?, image?} -> {dc, server, ...}
//	POST /v1/depart   {id}                          -> {removed}
//	POST /v1/observe  {slot, vms, volumes}          -> 200
//	POST /v1/drain    stop admitting, wait for in-flight work
//	GET  /metrics     text exposition of the operational counters
//	GET  /healthz     liveness + SLO snapshot
//
// Saturation of the bounded admission queue answers 429 with Retry-After;
// a draining daemon answers 503. Every request additionally runs under
// Options.RequestTimeout: a request that misses the deadline is answered
// 503 + Retry-After and counted on serve_deadline_total.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", d.handlePlace)
	mux.HandleFunc("POST /v1/depart", d.handleDepart)
	mux.HandleFunc("POST /v1/observe", d.handleObserve)
	mux.HandleFunc("POST /v1/drain", d.handleDrain)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	if d.opt.RequestTimeout <= 0 {
		return mux
	}
	return d.withDeadline(mux)
}

// withDeadline bounds each request's handling time. The wrapped handler
// runs against a buffered recorder on its own goroutine; if the deadline
// fires first the client gets 503 + Retry-After immediately, and the
// stale response is discarded when the handler eventually finishes (the
// daemon's own state commit is unaffected — only the reply is dropped).
func (d *Daemon) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d.opt.RequestTimeout)
		defer cancel()
		rec := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			next.ServeHTTP(rec, r.WithContext(ctx))
		}()
		select {
		case <-done:
			rec.flush(w)
		case <-ctx.Done():
			d.mDeadlines.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "serve: request deadline exceeded", http.StatusServiceUnavailable)
		}
	})
}

// bufferedResponse captures a handler's reply so the deadline path never
// races the handler over the real ResponseWriter.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes())
}

// writeOpError maps daemon errors onto the backpressure contract.
func writeOpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrAlreadyPlaced):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Daemon) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req placeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ID < 0 || len(req.Profile) == 0 {
		http.Error(w, "bad request: id >= 0 and a non-empty profile are required", http.StatusBadRequest)
		return
	}
	vm := VM{ID: req.ID, Profile: req.Profile, Image: units.DataSize(req.Image)}
	for _, fl := range req.Flows {
		vm.Flows = append(vm.Flows, Flow{
			Peer:     fl.Peer,
			ToPeer:   units.DataSize(fl.ToPeer),
			FromPeer: units.DataSize(fl.FromPeer),
		})
	}
	dec, err := d.Place(vm)
	if err != nil {
		writeOpError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, placeResponse{
		ID:         dec.ID,
		DC:         dec.DC,
		Server:     dec.Server,
		Overflowed: dec.Overflowed,
		Seq:        dec.Seq,
		LatencyMS:  float64(dec.Latency.Nanoseconds()) / 1e6,
	})
}

func (d *Daemon) handleDepart(w http.ResponseWriter, r *http.Request) {
	var req departRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	removed, err := d.Depart(req.ID)
	if err != nil {
		writeOpError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, departResponse{ID: req.ID, Removed: removed})
}

func (d *Daemon) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req observeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	obs := Observation{Slot: timeutil.Slot(req.Slot)}
	for _, v := range req.VMs {
		obs.VMs = append(obs.VMs, VMProfile{ID: v.ID, Profile: v.Profile})
	}
	for _, v := range req.Volumes {
		obs.Volumes = append(obs.Volumes, VolumeObs{From: v.From, To: v.To, Vol: units.DataSize(v.Vol)})
	}
	if err := d.Observe(obs); err != nil {
		writeOpError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (d *Daemon) handleDrain(w http.ResponseWriter, r *http.Request) {
	d.Drain()
	httpx.WriteJSON(w, http.StatusOK, map[string]bool{"drained": true})
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(d.opt.Board.Snapshot().Text()))
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := d.opt.Board.Hist("serve_decision_latency").Snapshot()
	status := "ok"
	if d.draining.Load() {
		status = "draining"
	}
	httpx.WriteJSON(w, http.StatusOK, healthResponse{
		Status:    status,
		Residents: d.NumResidents(),
		SLOMS:     float64(d.opt.SLO.Nanoseconds()) / 1e6,
		P99MS:     h.P99NS / 1e6,
		Draining:  d.draining.Load(),
	})
}
