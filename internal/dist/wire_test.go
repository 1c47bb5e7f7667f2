package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"geovmp/internal/experiment"
)

// serving starts a coordinator serving g with no workers attached and
// waits for the grid to become active. Requests go straight to its handler.
func serving(t testing.TB, g experiment.Grid) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.RunGrid(ctx, g)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		coord.Close()
	})
	for deadline := time.Now().Add(10 * time.Second); !coord.status().Active; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("grid never became active")
		}
	}
	return coord
}

// status reads the coordinator's progress through its handler.
func (c *Coordinator) status() StatusResponse {
	var st StatusResponse
	rec := httptest.NewRecorder()
	c.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	json.Unmarshal(rec.Body.Bytes(), &st)
	return st
}

// post sends one protocol request to the coordinator's handler.
func (c *Coordinator) post(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkMergedIdentity fails when any merged row carries an identity other
// than its cell's.
func checkMergedIdentity(t testing.TB, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run == nil {
		return
	}
	for i, cell := range c.run.set.Cells {
		if d := cell.Data; d != nil && (d.Scenario != cell.Scenario || d.Policy != cell.Policy || d.Seed != cell.Seed) {
			t.Fatalf("cell %d (%s/%s/%d) holds a row for %s/%s/%d", i, cell.Scenario, cell.Policy, cell.Seed, d.Scenario, d.Policy, d.Seed)
		}
	}
}

// TestDistRejectsMisaddressedRow: a result with the leased cell's
// fingerprint but a row naming another scenario, policy or seed is refused
// with 409 and counted as rejected, and the cell stays pending until a row
// with its own identity arrives.
func TestDistRejectsMisaddressedRow(t *testing.T) {
	coord := serving(t, testGrid(t))
	var lr leaseResponse
	if err := json.Unmarshal(coord.post("/v1/lease", []byte(`{"worker":"w"}`)).Body.Bytes(), &lr); err != nil || lr.Item == nil {
		t.Fatalf("no item leased: %v %+v", err, lr)
	}
	it := lr.Item
	result := func(row experiment.CellData) int {
		body, _ := json.Marshal(resultRequest{Lease: it.Lease, Cell: it.Cell, Fingerprint: it.Fingerprint, Row: &row})
		return coord.post("/v1/result", body).Code
	}
	for k, row := range []experiment.CellData{
		{Scenario: it.Scenario + "-other", Policy: it.PolicyName, Seed: it.Seed},
		{Scenario: it.Scenario, Policy: it.PolicyName + "-other", Seed: it.Seed},
		{Scenario: it.Scenario, Policy: it.PolicyName, Seed: it.Seed + 1},
	} {
		if code := result(row); code != http.StatusConflict {
			t.Fatalf("misaddressed row %d got status %d, want 409", k, code)
		}
		if n := coord.board.Counter("dist_results_rejected").Value(); n != int64(k+1) {
			t.Fatalf("rejected counter = %d, want %d", n, k+1)
		}
		if st := coord.status(); st.Done != 0 {
			t.Fatalf("misaddressed row %d was merged: %+v", k, st)
		}
		checkMergedIdentity(t, coord)
	}
	if code := result(experiment.CellData{Scenario: it.Scenario, Policy: it.PolicyName, Seed: it.Seed}); code != http.StatusOK {
		t.Fatalf("well-addressed row got status %d", code)
	}
	if st := coord.status(); st.Done != 1 {
		t.Fatalf("well-addressed row not merged: %+v", st)
	}
	checkMergedIdentity(t, coord)
}

// FuzzDistWire drives the coordinator's lease, heartbeat and result
// handlers with arbitrary bodies against a live grid: no request panics or
// answers 5xx, a body that is not one well-typed JSON request answers 4xx,
// and every row the coordinator merges carries its cell's identity.
func FuzzDistWire(f *testing.F) {
	coord := serving(f, testGrid(f))
	var lr leaseResponse
	json.Unmarshal(coord.post("/v1/lease", []byte(`{}`)).Body.Bytes(), &lr)
	if lr.Item == nil {
		f.Fatal("no item leased")
	}
	it := lr.Item
	good, _ := json.Marshal(resultRequest{Lease: it.Lease, Cell: it.Cell, Fingerprint: it.Fingerprint,
		Row: &experiment.CellData{Scenario: it.Scenario, Policy: it.PolicyName, Seed: it.Seed}})
	forged, _ := json.Marshal(resultRequest{Lease: it.Lease, Cell: it.Cell, Fingerprint: it.Fingerprint,
		Row: &experiment.CellData{Scenario: "elsewhere", Policy: it.PolicyName, Seed: it.Seed}})
	failed, _ := json.Marshal(resultRequest{Lease: it.Lease, Cell: it.Cell, Fingerprint: it.Fingerprint, Error: "boom"})
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"worker":"w1"}`},
		{0, `{} trailing`},
		{1, `{"lease":"` + it.Lease + `"}`},
		{1, `{"lease":7}`},
		{2, string(forged)},
		{2, string(failed)},
		{2, string(good)},
		{2, `{"cell":-1}`},
		{2, `{"cell":0,"fingerprint":"` + it.Fingerprint + `"}`},
		{2, `null`},
		{2, ``},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	paths := []string{"/v1/lease", "/v1/heartbeat", "/v1/result"}
	probes := []any{&leaseRequest{}, &heartbeatRequest{}, &resultRequest{}}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		k := int(path) % len(paths)
		rec := coord.post(paths[k], body)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d", paths[k], body, rec.Code)
		}
		if json.Unmarshal(body, probes[k]) != nil && rec.Code < 400 {
			t.Fatalf("POST %s %q: malformed body answered %d", paths[k], body, rec.Code)
		}
		checkMergedIdentity(t, coord)
	})
}
