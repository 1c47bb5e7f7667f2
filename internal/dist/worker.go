package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"geovmp/internal/experiment"
	"geovmp/internal/metrics"
	"geovmp/internal/par"
)

// WorkerConfig parameterizes RunWorker. Only Coordinator is required.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this worker in coordinator logs and metrics.
	Name string
	// Parallelism is the worker's total budget for intra-cell sharding;
	// <= 0 selects GOMAXPROCS. Cells are evaluated one at a time (the
	// grid's cell-level parallelism lives in how many workers connect),
	// with the full budget funding each cell's sharded passes — results
	// are byte-identical at any value.
	Parallelism int
	// Poll is the idle re-poll fallback when the coordinator gives no
	// wait hint. Default 200 ms.
	Poll time.Duration
	// IdleExit, when positive, makes RunWorker return nil once the
	// coordinator has been unreachable for this long — for one-shot
	// deployments (CI jobs, batch scripts) that should wind down with the
	// sweep. The default (0) keeps polling forever, which is what lets a
	// long-lived worker survive a coordinator restart-and-resume.
	IdleExit time.Duration
	// Board receives worker-side metrics; nil allocates a private one.
	Board *metrics.Board
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests inject one wired straight
	// to an in-process coordinator).
	Client *http.Client
}

// RunWorker connects to a coordinator and evaluates leased cells until the
// coordinator reports done or ctx is cancelled. Each cell is compiled and
// evaluated with the same engine code the in-process sweep uses
// (CompileColumn + RunOnColumn), so the rows it streams back are
// byte-identical to a local run's export. Columns are cached across cells
// sharing a scenario x seed, mirroring the in-process column sharing.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return fmt.Errorf("dist: worker needs a coordinator URL")
	}
	return newWorker(cfg).run(ctx)
}

// newWorker fills in cfg's defaults and builds the worker state.
func newWorker(cfg WorkerConfig) *worker {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Board == nil {
		cfg.Board = metrics.NewBoard()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &worker{
		cfg:      cfg,
		cells:    cfg.Board.Counter("dist_worker_cells"),
		errors:   cfg.Board.Counter("dist_worker_errors"),
		rejects:  cfg.Board.Counter("dist_worker_rejects"),
		compiles: cfg.Board.Counter("dist_worker_compiles"),
		hits:     cfg.Board.Counter("dist_worker_column_hits"),
		cellTime: cfg.Board.Hist("dist_worker_cell_latency"),
		columns:  make(map[string]*columnEntry),
	}
}

// cacheColumns bounds how many compiled scenario x seed columns a worker
// keeps hot across cells: the current column plus one — enough for a
// coordinator draining one column at a time with occasional retries from
// an older one.
const cacheColumns = 2

type worker struct {
	cfg      WorkerConfig
	cells    *metrics.Counter
	errors   *metrics.Counter
	rejects  *metrics.Counter
	compiles *metrics.Counter
	hits     *metrics.Counter
	cellTime *metrics.LatencyHist

	// columns is an LRU cache of compiled columns by fingerprint, at most
	// cacheColumns entries; only the run loop's goroutine touches it.
	columns map[string]*columnEntry
	useSeq  int64
}

type columnEntry struct {
	col     *experiment.Column
	lastUse int64
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *worker) run(ctx context.Context) error {
	lastContact := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp leaseResponse
		if err := w.post(ctx, "/v1/lease", leaseRequest{Worker: w.cfg.Name}, &resp); err != nil {
			// A refused connection is how a worker outlives its
			// coordinator; back off and retry until ctx (or IdleExit)
			// says otherwise.
			if w.cfg.IdleExit > 0 && time.Since(lastContact) > w.cfg.IdleExit {
				w.logf("dist[%s]: coordinator unreachable for %s, exiting", w.cfg.Name, w.cfg.IdleExit)
				return nil
			}
			w.logf("dist[%s]: lease: %v", w.cfg.Name, err)
			if !sleep(ctx, w.cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		lastContact = time.Now()
		switch {
		case resp.Done:
			w.logf("dist[%s]: coordinator done, exiting", w.cfg.Name)
			return nil
		case resp.Item == nil:
			wait := time.Duration(resp.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = w.cfg.Poll
			}
			if !sleep(ctx, wait) {
				return ctx.Err()
			}
		default:
			w.process(ctx, resp.Item)
		}
	}
}

// process evaluates one leased cell and reports its outcome.
func (w *worker) process(ctx context.Context, item *WorkItem) {
	start := time.Now()
	res := resultRequest{
		Lease:       item.Lease,
		Cell:        item.Cell,
		Worker:      w.cfg.Name,
		Fingerprint: item.Fingerprint,
	}

	// Re-derive the fingerprint from the decoded spec. The round trip
	// through JSON is the point: if this build's Spec schema drifted from
	// the coordinator's, the re-marshal hashes differently and the item is
	// rejected as belonging to another universe.
	fp, err := experiment.SpecFingerprint(item.Spec, item.Seed)
	if err == nil && fp != item.Fingerprint {
		err = fmt.Errorf("spec fingerprint mismatch: coordinator %q, worker %q (version skew?)", item.Fingerprint, fp)
	}
	if err != nil {
		w.rejects.Inc()
		res.Error = err.Error()
		res.Permanent = true
		w.report(ctx, &res)
		return
	}
	mk, err := ResolvePolicy(item.Policy)
	if err != nil {
		w.rejects.Inc()
		res.Error = err.Error()
		res.Permanent = true
		w.report(ctx, &res)
		return
	}

	// Keep the lease alive while compiling and simulating; losing it
	// (coordinator restarted, lease expired anyway) aborts the cell — some
	// other worker owns it now.
	cellCtx, cancel := context.WithCancelCause(ctx)
	hbDone := make(chan struct{})
	go w.heartbeat(cellCtx, cancel, item, hbDone)

	col, err := w.column(item)
	var row *experiment.CellData
	if err == nil {
		ps := experiment.PolicySpec{Name: item.PolicyName, New: mk}
		var r *experiment.Cell
		result, runErr := experiment.RunOnColumn(cellCtx, item.Spec, ps, item.Seed, col, par.NewBudget(w.cfg.Parallelism-1))
		err = runErr
		if err == nil {
			r = &experiment.Cell{Scenario: item.Scenario, Policy: item.PolicyName, Seed: item.Seed, Result: result}
			data := r.Export()
			row = &data
		}
	}
	cancel(nil)
	<-hbDone
	w.cellTime.Observe(time.Since(start))

	if err != nil {
		if lostLease(cellCtx) {
			// The lease is gone: the coordinator already re-queued the
			// cell, reporting would be noise.
			w.logf("dist[%s]: cell %d abandoned: lease lost", w.cfg.Name, item.Cell)
			return
		}
		w.errors.Inc()
		res.Error = err.Error()
		w.report(ctx, &res)
		return
	}
	res.Row = row
	w.cells.Inc()
	w.report(ctx, &res)
}

// heartbeat keeps the item's lease alive until ctx is cancelled, cancelling
// the cell with errLeaseLost if the coordinator reports the lease gone.
func (w *worker) heartbeat(ctx context.Context, cancel context.CancelCauseFunc, item *WorkItem, done chan<- struct{}) {
	defer close(done)
	every := time.Duration(item.LeaseMS) * time.Millisecond / 3
	if every <= 0 {
		every = 5 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp okResponse
			err := w.post(ctx, "/v1/heartbeat", heartbeatRequest{Lease: item.Lease}, &resp)
			if err != nil {
				var gone *protocolError
				if isGone(err, &gone) {
					cancel(errLeaseLost)
					return
				}
				// Transient network trouble: keep trying until the lease
				// actually dies.
				w.logf("dist[%s]: heartbeat: %v", w.cfg.Name, err)
			}
		}
	}
}

var errLeaseLost = fmt.Errorf("dist: lease lost")

func lostLease(ctx context.Context) bool {
	return context.Cause(ctx) == errLeaseLost
}

// column returns the compiled column for the item's spec x seed, compiling
// it once and keeping it across cells in the LRU cache.
func (w *worker) column(item *WorkItem) (*experiment.Column, error) {
	w.useSeq++
	if e, ok := w.columns[item.Fingerprint]; ok {
		e.lastUse = w.useSeq
		w.hits.Inc()
		return e.col, nil
	}
	w.compiles.Inc()
	col, err := experiment.CompileColumn(item.Spec, item.Seed, par.NewBudget(w.cfg.Parallelism-1))
	if err == nil && col.Fingerprint() != item.Fingerprint {
		err = fmt.Errorf("dist: compiled column fingerprint %q != item %q", col.Fingerprint(), item.Fingerprint)
	}
	if err != nil {
		// Failures are not cached: a transient cause would otherwise
		// poison every future cell of the column.
		return nil, fmt.Errorf("dist: compile column for cell %d: %w", item.Cell, err)
	}
	if len(w.columns) >= cacheColumns {
		// Evict the least recently used entry. An evicted column stays
		// valid for any cell still holding it (columns are immutable).
		var oldest string
		for fp, e := range w.columns {
			if oldest == "" || e.lastUse < w.columns[oldest].lastUse {
				oldest = fp
			}
		}
		delete(w.columns, oldest)
	}
	w.columns[item.Fingerprint] = &columnEntry{col: col, lastUse: w.useSeq}
	return col, nil
}

// report posts the cell outcome, retrying transient failures briefly —
// losing a computed result to one connection blip would waste a whole
// cell's compute.
func (w *worker) report(ctx context.Context, res *resultRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		var resp okResponse
		err := w.post(ctx, "/v1/result", res, &resp)
		if err == nil {
			return
		}
		var gone *protocolError
		if isGone(err, &gone) {
			w.logf("dist[%s]: result for cell %d dropped: %v", w.cfg.Name, res.Cell, err)
			return
		}
		w.logf("dist[%s]: report cell %d: %v", w.cfg.Name, res.Cell, err)
		if !sleep(ctx, time.Duration(attempt+1)*200*time.Millisecond) {
			return
		}
	}
}

// protocolError is a non-2xx coordinator response.
type protocolError struct {
	Status int
	Msg    string
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("dist: coordinator returned %d: %s", e.Status, e.Msg)
}

// isGone reports whether err is a 409/410 protocol response — the
// coordinator telling this worker its work no longer belongs to it.
func isGone(err error, out **protocolError) bool {
	pe, ok := err.(*protocolError)
	if !ok {
		return false
	}
	*out = pe
	return pe.Status == http.StatusGone || pe.Status == http.StatusConflict
}

func (w *worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var perr errorResponse
		json.Unmarshal(data, &perr)
		return &protocolError{Status: resp.StatusCode, Msg: perr.Error}
	}
	return json.Unmarshal(data, out)
}

// sleep waits d or until ctx is cancelled; it reports whether the full
// wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
