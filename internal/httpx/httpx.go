// Package httpx holds the HTTP helpers the daemon and the dist coordinator
// share.
package httpx

import (
	"encoding/json"
	"net/http"

	"geovmp/internal/metrics"
)

// WriteJSON replies with status code and v encoded as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status is already sent: an encode error means the client is
	// gone, and there is no one left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// Metrics returns the GET /metrics handler: the board's text exposition
// as text/plain.
func Metrics(b *metrics.Board) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(b.Snapshot().Text()))
	}
}
