package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geovmp/internal/config"
	"geovmp/internal/experiment"
	"geovmp/internal/timeutil"
)

// testGrid is the dist regression grid: two presets x two policies x two
// seeds, tiny and short — the same worlds the golden grid pins, so cell
// runtimes stay test-sized.
func testGrid(t testing.TB) experiment.Grid {
	t.Helper()
	static, err := config.Preset("paper-geo3dc")
	if err != nil {
		t.Fatal(err)
	}
	static.Scale = 0.01
	static.Seed = 7
	static.Horizon = timeutil.Hours(8)
	static.FineStepSec = 300

	dynamic, err := config.Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	dynamic.Scale = 0.005
	dynamic.Seed = 11
	dynamic.Horizon = timeutil.Hours(8)
	dynamic.FineStepSec = 300

	proposed, err := PolicySpecFromRef("Proposed", experiment.PolicyRef{Kind: KindProposed, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ener, err := PolicySpecFromRef("Ener-aware", experiment.PolicyRef{Kind: KindEnerAware})
	if err != nil {
		t.Fatal(err)
	}
	return experiment.Grid{
		Scenarios:   []config.Spec{static, dynamic},
		Policies:    []experiment.PolicySpec{proposed, ener},
		SeedOffsets: []uint64{0, 1},
	}
}

// inProcessJSON runs the grid with the plain in-process engine.
func inProcessJSON(t *testing.T, g experiment.Grid) []byte {
	t.Helper()
	set, err := experiment.Run(context.Background(), g)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	b, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startWorker(ctx context.Context, t *testing.T, url, name string) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Coordinator: url,
			Name:        name,
			Parallelism: 1,
			Poll:        10 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()
	return done
}

func TestDistSweepBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	g := testGrid(t)
	want := inProcessJSON(t, g)

	coord, err := NewCoordinator(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var workers []chan error
	for i := 0; i < 3; i++ {
		workers = append(workers, startWorker(ctx, t, coord.URL(), fmt.Sprintf("w%d", i)))
	}

	set, err := coord.RunGrid(ctx, g)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	got, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed JSON differs from in-process JSON:\n--- dist (%d bytes)\n%.2000s\n--- in-process (%d bytes)\n%.2000s", len(got), got, len(want), want)
	}

	// No cell may survive as a live Result on the coordinator: every
	// outcome arrived as a flattened row.
	for i := range set.Cells {
		if set.Cells[i].Result != nil {
			t.Fatalf("cell %d carries a live Result on the coordinator", i)
		}
		if set.Cells[i].Data == nil {
			t.Fatalf("cell %d has no data", i)
		}
	}

	coord.Finish()
	for i, w := range workers {
		select {
		case err := <-w:
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after coordinator close", i)
		}
	}
}

// TestDistWorkerKilledMidCell kills one worker while it holds a lease; the
// lease expires, the cell is re-queued, a second worker finishes the sweep,
// and the merged output is still byte-identical.
func TestDistWorkerKilledMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	g := testGrid(t)
	want := inProcessJSON(t, g)

	coord, err := newCoordinator(Config{Logf: t.Logf}, 300*time.Millisecond, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	runDone := make(chan struct{})
	var set *experiment.Set
	var runErr error
	go func() {
		defer close(runDone)
		set, runErr = coord.RunGrid(ctx, g)
	}()

	// Take one lease directly and abandon it — on the wire this IS a
	// worker killed mid-cell: the lease is out, no heartbeat or result
	// ever arrives, and only expiry can rescue the cell. (Killing a live
	// worker goroutine between cells would race: the tiny test cells
	// complete in milliseconds.)
	deadline := time.Now().Add(30 * time.Second)
	var doomed *WorkItem
	for doomed == nil {
		if time.Now().After(deadline) {
			t.Fatal("never obtained the doomed lease")
		}
		body, _ := json.Marshal(leaseRequest{Worker: "killed-mid-cell"})
		resp, err := http.Post(coord.URL()+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var lr leaseResponse
		json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		doomed = lr.Item
		if doomed == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("abandoning lease %s on cell %d", doomed.Lease, doomed.Cell)

	// A real victim worker too: killed while the sweep is in flight.
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	victim := startWorker(victimCtx, t, coord.URL(), "victim")
	time.Sleep(50 * time.Millisecond)
	kill()
	<-victim

	// The survivor finishes everything, including the orphaned cell.
	survivor := startWorker(ctx, t, coord.URL(), "survivor")
	<-runDone
	if runErr != nil {
		t.Fatalf("distributed run: %v", runErr)
	}
	got, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill JSON differs from in-process JSON")
	}
	if exp := coord.board.Counter("dist_leases_expired").Value(); exp == 0 {
		t.Fatalf("expected at least one expired lease, board shows none")
	}

	coord.Finish()
	<-survivor
}

// TestDistResume checkpoints a sweep, then replays the grid from the
// checkpoint with zero workers connected: every cell is preloaded, no lease
// is ever granted, and the export is byte-identical.
func TestDistResume(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	g := testGrid(t)
	want := inProcessJSON(t, g)
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")

	coord, err := NewCoordinator(Config{CheckpointPath: ckPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	w := startWorker(ctx, t, coord.URL(), "w0")
	if _, err := coord.RunGrid(ctx, g); err != nil {
		t.Fatalf("first run: %v", err)
	}

	ck, err := experiment.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Loaded != 8 {
		t.Fatalf("checkpoint holds %d rows, want 8", ck.Loaded)
	}

	// Full resume: a fresh coordinator with NO workers must complete the
	// grid instantly from the checkpoint alone.
	coord2, err := NewCoordinator(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	g2 := g
	g2.Resume = ck
	rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()
	set, err := coord2.RunGrid(rctx, g2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed JSON differs from in-process JSON")
	}
	if n := coord2.board.Counter("dist_leases").Value(); n != 0 {
		t.Fatalf("full resume leased %d cells, want 0", n)
	}

	coord.Finish()
	<-w
}

// TestDistPartialResume drops half the checkpoint rows and verifies the
// coordinator schedules exactly the missing cells.
func TestDistPartialResume(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	g := testGrid(t)
	want := inProcessJSON(t, g)

	// Build a full checkpoint from the in-process run's own export, then
	// keep only the first 5 of 8 rows.
	var doc struct {
		Scenarios   []string          `json:"scenarios"`
		Policies    []string          `json:"policies"`
		SeedOffsets []uint64          `json:"seed_offsets"`
		Cells       []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Cells = doc.Cells[:5]
	partial, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := experiment.ParseCheckpoint(partial)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Loaded != 5 {
		t.Fatalf("partial checkpoint holds %d rows, want 5", ck.Loaded)
	}

	coord, err := NewCoordinator(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	w := startWorker(ctx, t, coord.URL(), "w0")

	g2 := g
	g2.Resume = ck
	set, err := coord.RunGrid(ctx, g2)
	if err != nil {
		t.Fatalf("partial-resume run: %v", err)
	}
	got, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partial-resume JSON differs from in-process JSON")
	}
	if n := coord.board.Counter("dist_results").Value(); n != 3 {
		t.Fatalf("partial resume computed %d cells, want 3", n)
	}

	coord.Finish()
	<-w
}

// TestDistRejectsForgedResult posts a result whose fingerprint does not
// match the cell and expects a 409.
func TestDistRejectsForgedResult(t *testing.T) {
	g := testGrid(t)
	coord, err := NewCoordinator(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		coord.RunGrid(ctx, g)
	}()
	// Wait for the grid to become active.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st StatusResponse
		resp, err := http.Get(coord.URL() + "/v1/status")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if st.Active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("grid never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, _ := json.Marshal(resultRequest{
		Cell:        0,
		Fingerprint: "deadbeef",
		Row:         &experiment.CellData{Scenario: "paper-geo3dc", Policy: "Proposed", Seed: 7},
	})
	resp, err := http.Post(coord.URL()+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("forged result got status %d, want 409", resp.StatusCode)
	}
	if n := coord.board.Counter("dist_results_rejected").Value(); n != 1 {
		t.Fatalf("rejected counter = %d, want 1", n)
	}
	cancel()
	<-runDone
}

// TestDistRequiresRefs: a grid with closure-only policies cannot travel.
func TestDistRequiresRefs(t *testing.T) {
	g := testGrid(t)
	g.Policies = append(g.Policies, experiment.PolicySpec{
		Name: "closure-only",
		New:  g.Policies[0].New,
	})
	coord, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.RunGrid(context.Background(), g); err == nil {
		t.Fatal("RunGrid accepted a grid with a Ref-less policy")
	}
}

// TestResolvePolicyUnknownKind: unknown kinds are errors, not silent
// defaults.
func TestResolvePolicyUnknownKind(t *testing.T) {
	if _, err := ResolvePolicy(experiment.PolicyRef{Kind: "does-not-exist"}); err == nil {
		t.Fatal("ResolvePolicy accepted an unknown kind")
	}
	if _, err := PolicySpecFromRef("x", experiment.PolicyRef{Kind: "nope"}); err == nil {
		t.Fatal("PolicySpecFromRef accepted an unknown kind")
	}
}

// TestDistCheckpointMatchesGoldenSchema: the coordinator's checkpoint file
// parses as a checkpoint AND round-trips through the golden-JSON schema.
func TestDistCheckpointMatchesGoldenSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	g := testGrid(t)
	want := inProcessJSON(t, g)
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")

	coord, err := NewCoordinator(Config{CheckpointPath: ckPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	w := startWorker(ctx, t, coord.URL(), "w0")
	if _, err := coord.RunGrid(ctx, g); err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	<-w

	// A completed sweep's checkpoint IS the golden export, byte for byte.
	ckBytes, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(ckBytes, "\n"), bytes.TrimRight(want, "\n")) {
		t.Fatalf("completed checkpoint differs from the golden-format export")
	}
}

// TestWorkerColumnCache drives the worker's column cache directly: a
// repeated fingerprint is a hit on dist_worker_column_hits, a third
// fingerprint evicts the least recently used at the cap of cacheColumns
// (2), and a failed compile (a fingerprint mismatch) is not cached, so the
// next request compiles again.
func TestWorkerColumnCache(t *testing.T) {
	spec := testGrid(t).Scenarios[0]
	spec.Horizon = timeutil.Hours(2)
	item := func(seed uint64) *WorkItem {
		fp, err := experiment.SpecFingerprint(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &WorkItem{Spec: spec, Seed: seed, Fingerprint: fp}
	}
	a, b, c := item(1), item(2), item(3)
	w := newWorker(WorkerConfig{Coordinator: "http://127.0.0.1:0", Parallelism: 1})
	hits := w.cfg.Board.Counter("dist_worker_column_hits")
	compiles := w.cfg.Board.Counter("dist_worker_compiles")
	get := func(it *WorkItem) *experiment.Column {
		t.Helper()
		col, err := w.column(it)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	expect := func(step string, wantCompiles, wantHits int64) {
		t.Helper()
		if got := compiles.Value(); got != wantCompiles {
			t.Fatalf("%s: %d compiles, want %d", step, got, wantCompiles)
		}
		if got := hits.Value(); got != wantHits {
			t.Fatalf("%s: %d hits, want %d", step, got, wantHits)
		}
	}

	colA := get(a)
	get(b)
	expect("a, b", 2, 0)
	if get(a) != colA {
		t.Fatal("a hit returned a different column")
	}
	expect("a again", 2, 1)
	get(c) // evicts b, the least recently used
	expect("c", 3, 1)
	get(a)
	expect("a after c", 3, 2)
	get(b)
	expect("b after eviction", 4, 2)

	bad := item(4)
	bad.Fingerprint = "not-the-spec"
	for i := 1; i <= 2; i++ {
		if _, err := w.column(bad); err == nil {
			t.Fatal("a fingerprint mismatch compiled without error")
		}
		expect("failed compile", 4+int64(i), 2)
	}
	if len(w.columns) != cacheColumns {
		t.Fatalf("cache holds %d columns, want the cap of %d", len(w.columns), cacheColumns)
	}
}
