package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServeHTTP drives the daemon's HTTP API with arbitrary place, observe
// and depart bodies — place, observe, the same place again, depart, place —
// on a fresh daemon per input, and pins the boundary contract: no panic, a
// body the daemon cannot use answers 4xx and nothing answers 5xx, and the
// resident count equals the successful places minus the departs that
// report a removal.
//
// CI runs this as a short -fuzztime smoke job; `go test` replays the seed
// corpus as a regular regression test.
func FuzzServeHTTP(f *testing.F) {
	prof := `[0.4,0.4,0.4,0.4,0.4,0.4,0.4,0.4,0.4,0.4,0.4,0.4]`
	f.Add([]byte(`{"id":1,"profile":`+prof+`}`), []byte(`{"slot":1,"vms":[{"id":1,"profile":`+prof+`}]}`), []byte(`{"id":1}`))
	f.Add([]byte(`{"id":2,"profile":[1,2],"flows":[{"peer":1,"to_peer":500,"from_peer":250}],"image":4e9}`),
		[]byte(`{"slot":2,"volumes":[{"from":1,"to":2,"vol":1e6}]}`), []byte(`{"id":3}`))
	f.Add([]byte(`{`), []byte(``), []byte(`null`))
	f.Add([]byte(`{"id":-1,"profile":[1]}`), []byte(`{"slot":-5,"vms":[{"id":-3,"profile":[]}]}`), []byte(`{"id":-1}`))
	f.Add([]byte(`{"id":5}`), []byte(`{"slot":9223372036854775807}`), []byte(`{"id":"x"}`))
	// Ids past MaxWireID would size the daemon's dense per-id tables.
	f.Add([]byte(`{"id":99999999999,"profile":[1]}`), []byte(`{"slot":1,"vms":[{"id":99999999999,"profile":[1]}]}`), []byte(`{"id":99999999999}`))
	f.Add([]byte(`{"id":1,"profile":[1],"flows":[{"peer":99999999999,"to_peer":1}]}`),
		[]byte(`{"slot":1,"volumes":[{"from":0,"to":99999999999,"vol":1}]}`), []byte(`{}`))
	f.Add([]byte(`{"id":1,"profile":[-1,1e308,1e308]}`), []byte(`{"slot":1,"volumes":[{"from":0,"to":1,"vol":-1}]}`), []byte(`{"id":1}`))

	sc := testScenario(f, 0.01)
	f.Fuzz(func(t *testing.T, place, observe, depart []byte) {
		d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, RequestTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		h := d.Handler()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("POST %s %q: status %d, want 200 or 4xx", path, body, rec.Code)
			}
			return rec
		}
		residents := 0
		placeOnce := func() {
			if post("/v1/place", place).Code == http.StatusOK {
				residents++
			}
		}
		placeOnce()
		post("/v1/observe", observe)
		placeOnce()
		if rec := post("/v1/depart", depart); rec.Code == http.StatusOK {
			var resp departResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("depart response %q: %v", rec.Body, err)
			}
			if resp.Removed {
				residents--
			}
		}
		placeOnce()
		if got := d.NumResidents(); got != residents {
			t.Fatalf("NumResidents = %d, want %d (places minus removals)", got, residents)
		}
	})
}

// TestHTTPRejectsOutOfRange pins the validation FuzzServeHTTP guards: ids
// past MaxWireID and negative samples or volumes answer 400 and leave the
// daemon untouched, while the largest valid id is admitted.
func TestHTTPRejectsOutOfRange(t *testing.T) {
	d := testDaemon(t, nil)
	h := d.Handler()
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/place", `{"id":1048576,"profile":[1]}`, http.StatusBadRequest},
		{"/v1/place", `{"id":1,"profile":[-0.5]}`, http.StatusBadRequest},
		{"/v1/place", `{"id":1,"profile":[1],"image":-1}`, http.StatusBadRequest},
		{"/v1/place", `{"id":1,"profile":[1],"flows":[{"peer":-2,"to_peer":1}]}`, http.StatusBadRequest},
		{"/v1/place", `{"id":1,"profile":[1],"flows":[{"peer":2,"from_peer":-1}]}`, http.StatusBadRequest},
		{"/v1/observe", `{"slot":1,"vms":[{"id":1048576,"profile":[1]}]}`, http.StatusBadRequest},
		{"/v1/observe", `{"slot":1,"vms":[{"id":1,"profile":[-1]}]}`, http.StatusBadRequest},
		{"/v1/observe", `{"slot":1,"volumes":[{"from":1,"to":-1,"vol":1}]}`, http.StatusBadRequest},
		{"/v1/observe", `{"slot":1,"volumes":[{"from":1,"to":2,"vol":-1}]}`, http.StatusBadRequest},
		{"/v1/place", `{"id":1048575,"profile":[1]}`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader([]byte(c.body))))
		if rec.Code != c.want {
			t.Errorf("POST %s %s: status %d, want %d", c.path, c.body, rec.Code, c.want)
		}
	}
	if got := d.NumResidents(); got != 1 {
		t.Fatalf("NumResidents = %d, want 1", got)
	}
}
