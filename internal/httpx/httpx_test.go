package httpx

import (
	"net/http/httptest"
	"testing"

	"geovmp/internal/metrics"
)

func TestMetricsServesBoardText(t *testing.T) {
	b := metrics.NewBoard()
	b.Counter("demo_total").Add(3)
	rec := httptest.NewRecorder()
	Metrics(b)(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	if got, want := rec.Body.String(), b.Snapshot().Text(); got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
	b.Counter("demo_total").Inc()
	rec = httptest.NewRecorder()
	Metrics(b)(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got, want := rec.Body.String(), b.Snapshot().Text(); got != want {
		t.Fatalf("second read is not live: body = %q, want %q", got, want)
	}
}
