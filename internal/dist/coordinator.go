package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"geovmp/internal/experiment"
	"geovmp/internal/httpx"
	"geovmp/internal/metrics"
)

// The coordinator's lease and retry tuning.
const (
	// leaseTTL bounds how long a cell stays leased without a heartbeat
	// before it is re-queued. Workers heartbeat every third of it, so a
	// long cell keeps its lease for as long as its worker lives.
	leaseTTL = 30 * time.Second
	// maxAttempts caps how many times a cell is leased before the
	// coordinator gives up and records the cell as failed.
	maxAttempts = 5
	// retryBase and retryMax shape the capped exponential backoff a
	// re-queued cell waits before its next lease: retryBase<<(attempt-1),
	// clamped to retryMax.
	retryBase = 250 * time.Millisecond
	retryMax  = 10 * time.Second
)

// Config parameterizes a Coordinator's deployment. The zero value is
// usable: a loopback listener on an ephemeral port, no checkpoint. Leases
// last 30 s and a cell gets 5 attempts.
type Config struct {
	// Addr is the listen address; empty means "127.0.0.1:0" (loopback,
	// ephemeral port — read the bound address back with URL).
	Addr string
	// CheckpointPath, when set, persists the sweep's completed cells after
	// every accepted result (written atomically via rename) in the
	// Set.CheckpointJSON format, so a killed coordinator resumes via
	// experiment.LoadCheckpoint + Grid.Resume without recomputing them.
	CheckpointPath string
	// Board receives the coordinator's operational metrics; nil allocates
	// a private one. Exposed at GET /metrics.
	Board *metrics.Board
	// Logf, when set, receives one line per notable protocol event.
	Logf func(format string, args ...any)
}

// Coordinator serves grid cells to workers and merges what they return.
// Construction binds the listener immediately (URL is valid before any
// grid is served); RunGrid then serves one grid at a time — a frontier
// driver calls it once per refinement wave over the same worker pool, and
// idle workers between waves are parked with a wait hint. Close tells
// workers to exit and releases the listener.
type Coordinator struct {
	cfg       Config
	ttl       time.Duration // lease TTL: leaseTTL outside tests
	retryBase time.Duration // backoff base: retryBase outside tests
	ln        net.Listener
	srv       *http.Server
	board     *metrics.Board

	leases      *metrics.Counter
	expired     *metrics.Counter
	results     *metrics.Counter
	duplicates  *metrics.Counter
	late        *metrics.Counter
	rejected    *metrics.Counter
	retries     *metrics.Counter
	failed      *metrics.Counter
	leasedGauge *metrics.Gauge
	queueGauge  *metrics.Gauge
	cellTime    *metrics.LatencyHist

	mu     sync.Mutex
	run    *gridRun
	closed bool
	seq    uint64

	progressMu sync.Mutex
}

// item is one not-yet-done cell of the active grid.
type item struct {
	idx       int // grid index into the run's Set
	wire      WorkItem
	attempts  int
	notBefore time.Time // backoff hold after a retryable failure
	lease     *lease    // non-nil while out on lease
	done      bool
	failed    bool
}

type lease struct {
	token    string
	it       *item
	worker   string
	deadline time.Time
	started  time.Time
}

type gridRun struct {
	grid        experiment.Grid
	set         *experiment.Set
	items       map[int]*item // by grid index; only cells that need work
	queue       []*item       // FIFO of unleased items (some on backoff hold)
	leases      map[string]*lease
	outstanding int // items without an accepted outcome
	doneCount   int // cells with an outcome, including preloaded ones
	doneCh      chan struct{}
}

// NewCoordinator binds the listener and starts serving the protocol. No
// grid is active until RunGrid; early workers poll and receive wait hints.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	return newCoordinator(cfg, leaseTTL, retryBase)
}

// newCoordinator is NewCoordinator with the lease TTL and the backoff base
// given, so a test can expire a lease in milliseconds. Both are fixed
// before the listener serves: a later write would race the handlers.
func newCoordinator(cfg Config, ttl, base time.Duration) (*Coordinator, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	board := cfg.Board
	if board == nil {
		board = metrics.NewBoard()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", cfg.Addr, err)
	}
	c := &Coordinator{
		cfg:         cfg,
		ttl:         ttl,
		retryBase:   base,
		ln:          ln,
		board:       board,
		leases:      board.Counter("dist_leases"),
		expired:     board.Counter("dist_leases_expired"),
		results:     board.Counter("dist_results"),
		duplicates:  board.Counter("dist_results_duplicate"),
		late:        board.Counter("dist_results_late"),
		rejected:    board.Counter("dist_results_rejected"),
		retries:     board.Counter("dist_cell_retries"),
		failed:      board.Counter("dist_cells_failed"),
		leasedGauge: board.Gauge("dist_cells_leased"),
		queueGauge:  board.Gauge("dist_queue_depth"),
		cellTime:    board.Hist("dist_cell_latency"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/result", c.handleResult)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /metrics", httpx.Metrics(c.board))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	return c, nil
}

// URL returns the coordinator's base URL (http://host:port) — valid
// immediately after NewCoordinator, before any grid is served.
func (c *Coordinator) URL() string { return "http://" + c.ln.Addr().String() }

// Finish marks the coordinator done for good: no further grids will be
// served, and from now on lease requests answer done:true so connected
// workers drain and exit on their next poll. The listener stays up (so
// those polls can still be answered) until Close.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Close finishes the coordinator and shuts the listener down. Callers that
// want workers to exit cleanly call Finish first, give them a poll interval
// to observe it, then Close.
func (c *Coordinator) Close() error {
	c.Finish()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return c.srv.Shutdown(ctx)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// RunGrid serves the grid's cells to workers until every cell has an
// outcome, then returns the merged Set — the same Set, cell for cell, that
// experiment.Run would produce in-process. Cells preloaded through
// g.Resume are never scheduled. Only one grid runs at a time; a second
// concurrent call errors.
func (c *Coordinator) RunGrid(ctx context.Context, g experiment.Grid) (*experiment.Set, error) {
	for _, p := range g.Policies {
		if p.New != nil && p.Ref == nil {
			return nil, fmt.Errorf("dist: policy %q has no serializable Ref — build it with PolicySpecFromRef (closures cannot travel)", p.Name)
		}
	}
	set, err := experiment.NewSet(g)
	if err != nil {
		return nil, err
	}
	// Fingerprint every scenario x seed up front; a spec that cannot
	// travel (injected workload) fails the sweep before any lease.
	fps := make(map[string]string, len(g.Scenarios)*len(set.SeedOffsets))
	for si, spec := range g.Scenarios {
		for _, off := range set.SeedOffsets {
			seed := spec.Seed + off
			fp, err := experiment.SpecFingerprint(spec, seed)
			if err != nil {
				return nil, err
			}
			fps[fmt.Sprintf("%d/%d", si, seed)] = fp
		}
	}

	run := &gridRun{
		grid:   g,
		set:    set,
		items:  make(map[int]*item),
		leases: make(map[string]*lease),
		doneCh: make(chan struct{}),
	}
	for i := range set.Cells {
		cell := &set.Cells[i]
		if cell.Done() {
			run.doneCount++
			continue
		}
		si, pi, _ := set.Coords(cell.Index)
		it := &item{
			idx: cell.Index,
			wire: WorkItem{
				Cell:        cell.Index,
				Scenario:    cell.Scenario,
				PolicyName:  cell.Policy,
				Seed:        cell.Seed,
				Fingerprint: fps[fmt.Sprintf("%d/%d", si, cell.Seed)],
				Spec:        g.Scenarios[si],
				Policy:      *g.Policies[pi].Ref,
			},
		}
		run.items[cell.Index] = it
		run.queue = append(run.queue, it)
		run.outstanding++
	}
	// Hand cells out column-major — all policies of one scenario x seed
	// before the next seed — so the consecutive cells a worker leases share
	// its cached compiled column instead of thrashing it. Export order is
	// canonical regardless, so this is invisible in the merged Set.
	sort.SliceStable(run.queue, func(a, b int) bool {
		sa, pa, ka := set.Coords(run.queue[a].idx)
		sb, pb, kb := set.Coords(run.queue[b].idx)
		if sa != sb {
			return sa < sb
		}
		if ka != kb {
			return ka < kb
		}
		return pa < pb
	})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: coordinator is closed")
	}
	if c.run != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: a grid is already being served")
	}
	c.run = run
	c.queueGauge.Set(int64(len(run.queue)))
	outstanding := run.outstanding
	// Workers may finish cells as soon as the lock drops, so the preloaded
	// count is read under it.
	preloaded := run.doneCount
	c.mu.Unlock()

	c.logf("dist: serving grid: %d cells (%d preloaded) at %s", len(set.Cells), preloaded, c.URL())
	defer func() {
		c.mu.Lock()
		c.run = nil
		c.queueGauge.Set(0)
		c.leasedGauge.Set(0)
		c.mu.Unlock()
	}()

	if outstanding == 0 {
		c.checkpoint(run)
		return set, set.Err()
	}

	// The wait loop doubles as the expiry scanner, so leases die on
	// schedule even when no worker request ever arrives again.
	scan := c.ttl / 4
	if scan > time.Second {
		scan = time.Second
	}
	if scan < 10*time.Millisecond {
		scan = 10 * time.Millisecond
	}
	ticker := time.NewTicker(scan)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Abandon unfinished cells: they keep their identity in the
			// Set with the cancellation recorded, like an in-process run.
			c.mu.Lock()
			for _, it := range run.items {
				if !it.done {
					it.done = true
					set.Cells[it.idx].Err = context.Cause(ctx)
				}
			}
			c.mu.Unlock()
			return set, fmt.Errorf("dist: sweep cancelled: %w", context.Cause(ctx))
		case <-ticker.C:
			c.mu.Lock()
			c.expireLocked(run, time.Now())
			c.mu.Unlock()
		case <-run.doneCh:
			return set, set.Err()
		}
	}
}

// expireLocked re-queues leases whose deadline passed. Callers hold c.mu.
func (c *Coordinator) expireLocked(run *gridRun, now time.Time) {
	for token, l := range run.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(run.leases, token)
		c.leasedGauge.Dec()
		c.expired.Inc()
		it := l.it
		it.lease = nil
		if it.done {
			continue
		}
		c.logf("dist: lease %s (cell %d, worker %s) expired after attempt %d", token, it.idx, l.worker, it.attempts)
		c.requeueLocked(run, it, "lease expired")
	}
}

// requeueLocked returns a failed/expired item to the queue under backoff,
// or fails its cell for good once attempts are exhausted. Callers hold c.mu.
func (c *Coordinator) requeueLocked(run *gridRun, it *item, why string) {
	if it.attempts >= maxAttempts {
		c.failLocked(run, it, fmt.Errorf("dist: cell %d failed after %d attempts: %s", it.idx, it.attempts, why))
		return
	}
	backoff := c.retryBase << (it.attempts - 1)
	if backoff > retryMax || backoff <= 0 {
		backoff = retryMax
	}
	it.notBefore = time.Now().Add(backoff)
	run.queue = append(run.queue, it)
	c.queueGauge.Set(int64(len(run.queue)))
	c.retries.Inc()
}

// failLocked records a permanent cell failure. Callers hold c.mu.
func (c *Coordinator) failLocked(run *gridRun, it *item, err error) {
	it.done = true
	it.failed = true
	run.set.Cells[it.idx].Err = err
	c.failed.Inc()
	c.logf("dist: %v", err)
	c.finishLocked(run, it)
}

// finishLocked accounts one item's completion. Callers hold c.mu.
func (c *Coordinator) finishLocked(run *gridRun, it *item) {
	run.outstanding--
	run.doneCount++
	if run.outstanding == 0 {
		close(run.doneCh)
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(r, &req); err != nil {
		httpx.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad lease request: " + err.Error()})
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		httpx.WriteJSON(w, http.StatusOK, leaseResponse{Done: true})
		return
	}
	run := c.run
	if run == nil {
		httpx.WriteJSON(w, http.StatusOK, leaseResponse{WaitMS: c.pollWaitMS()})
		return
	}
	c.expireLocked(run, now)
	// Pop the first queued item whose backoff hold has passed, dropping
	// items a late result already completed.
	var it *item
	live := run.queue[:0]
	for _, q := range run.queue {
		switch {
		case q.done:
			// drop
		case it == nil && !now.Before(q.notBefore):
			it = q
		default:
			live = append(live, q)
		}
	}
	run.queue = live
	c.queueGauge.Set(int64(len(run.queue)))
	if it == nil {
		httpx.WriteJSON(w, http.StatusOK, leaseResponse{WaitMS: c.pollWaitMS()})
		return
	}
	it.attempts++
	c.seq++
	l := &lease{
		token:    fmt.Sprintf("L%08x-%d", c.seq, it.idx),
		it:       it,
		worker:   req.Worker,
		deadline: now.Add(c.ttl),
		started:  now,
	}
	it.lease = l
	run.leases[l.token] = l
	c.leases.Inc()
	c.leasedGauge.Inc()
	item := it.wire
	item.Lease = l.token
	item.LeaseMS = c.ttl.Milliseconds()
	httpx.WriteJSON(w, http.StatusOK, leaseResponse{Item: &item})
}

// pollWaitMS is the sleep hint for idle workers: a fraction of the lease
// TTL, clamped to stay responsive in tests and gentle in production.
func (c *Coordinator) pollWaitMS() int64 {
	wait := c.ttl / 10
	if wait < 25*time.Millisecond {
		wait = 25 * time.Millisecond
	}
	if wait > 2*time.Second {
		wait = 2 * time.Second
	}
	return wait.Milliseconds()
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		httpx.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad heartbeat: " + err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	run := c.run
	if run == nil {
		httpx.WriteJSON(w, http.StatusGone, errorResponse{Error: "no active grid"})
		return
	}
	l, ok := run.leases[req.Lease]
	if !ok {
		httpx.WriteJSON(w, http.StatusGone, errorResponse{Error: "lease unknown or expired"})
		return
	}
	l.deadline = time.Now().Add(c.ttl)
	httpx.WriteJSON(w, http.StatusOK, okResponse{OK: true})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := decodeBody(r, &req); err != nil {
		httpx.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad result: " + err.Error()})
		return
	}
	c.mu.Lock()
	run := c.run
	if run == nil {
		c.mu.Unlock()
		httpx.WriteJSON(w, http.StatusGone, errorResponse{Error: "no active grid"})
		return
	}
	it, ok := run.items[req.Cell]
	if !ok {
		c.mu.Unlock()
		httpx.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown cell %d", req.Cell)})
		return
	}
	// A row is merged under its cell's identity, so it must carry that
	// identity as well as the cell's fingerprint; a mismatch leaves the
	// cell pending.
	cell := &run.set.Cells[it.idx]
	mismatch := ""
	switch row := req.Row; {
	case req.Fingerprint != it.wire.Fingerprint:
		mismatch = fmt.Sprintf("fingerprint %q != %q", req.Fingerprint, it.wire.Fingerprint)
	case req.Error == "" && row != nil && (row.Scenario != cell.Scenario || row.Policy != cell.Policy || row.Seed != cell.Seed):
		mismatch = fmt.Sprintf("row %s/%s/%d != cell %s/%s/%d", row.Scenario, row.Policy, row.Seed, cell.Scenario, cell.Policy, cell.Seed)
	}
	if mismatch != "" {
		c.rejected.Inc()
		c.mu.Unlock()
		c.logf("dist: rejected result for cell %d: %s", req.Cell, mismatch)
		httpx.WriteJSON(w, http.StatusConflict, errorResponse{Error: "mismatch: " + mismatch})
		return
	}
	// The lease may be gone (expired, cell re-leased elsewhere): the
	// result is still valid — determinism guarantees a late copy carries
	// the same bytes a retry will — so accept it and retire the lease the
	// retry holds, if any.
	if l, ok := run.leases[req.Lease]; ok {
		c.cellTime.Observe(time.Since(l.started))
		delete(run.leases, req.Lease)
		c.leasedGauge.Dec()
		l.it.lease = nil
	} else {
		c.late.Inc()
	}
	if it.done {
		c.duplicates.Inc()
		c.mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, okResponse{OK: true})
		return
	}
	if req.Error != "" {
		if req.Permanent {
			c.failLocked(run, it, fmt.Errorf("dist: cell %d rejected by worker %s: %s", it.idx, req.Worker, req.Error))
		} else {
			c.logf("dist: cell %d attempt %d failed on worker %s: %s", it.idx, it.attempts, req.Worker, req.Error)
			c.requeueLocked(run, it, req.Error)
		}
		c.mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, okResponse{OK: true})
		return
	}
	if req.Row == nil {
		c.mu.Unlock()
		httpx.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "result carries neither row nor error"})
		return
	}
	row := *req.Row
	it.done = true
	run.set.Cells[it.idx].Data = &row
	c.results.Inc()
	c.checkpointLocked(run)
	c.finishLocked(run, it)
	doneCount, total := run.doneCount, len(run.set.Cells)
	progress := run.grid.Progress
	c.mu.Unlock()

	if progress != nil {
		c.progressMu.Lock()
		progress(experiment.Progress{Done: doneCount, Total: total, Cell: cell})
		c.progressMu.Unlock()
	}
	httpx.WriteJSON(w, http.StatusOK, okResponse{OK: true})
}

// decodeBody decodes a request body holding exactly one JSON value into v.
func decodeBody(r *http.Request, v any) error {
	b, err := io.ReadAll(r.Body)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	return err
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := StatusResponse{Closed: c.closed}
	if run := c.run; run != nil {
		resp.Active = true
		resp.Total = len(run.set.Cells)
		resp.Done = run.doneCount
		resp.Leased = len(run.leases)
		resp.Queued = len(run.queue)
		for _, it := range run.items {
			if it.failed {
				resp.Failed++
			}
		}
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// checkpoint persists the run's completed cells (when configured).
func (c *Coordinator) checkpoint(run *gridRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkpointLocked(run)
}

// checkpointLocked writes the checkpoint (atomically, see
// Set.WriteCheckpoint) under the coordinator lock, since cells mutate
// under it. Callers hold c.mu.
func (c *Coordinator) checkpointLocked(run *gridRun) {
	if c.cfg.CheckpointPath == "" {
		return
	}
	if err := run.set.WriteCheckpoint(c.cfg.CheckpointPath); err != nil {
		c.logf("dist: checkpoint: %v", err)
	}
}
