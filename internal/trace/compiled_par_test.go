package trace

import (
	"reflect"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// TestCompileParallelMatchesSerial proves a sharded compilation produces
// exactly the serial tables: fine rows, profiles, volume lists, active
// windows and images, compared structurally — resident at 300 s, and with
// the fine table streamed at 5 s.
func TestCompileParallelMatchesSerial(t *testing.T) {
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(30), InitialVMs: 120})
	opts := CompileOptions{Samples: 12, FineStepSec: 300}
	serial := Compile(w, opts)
	opts.Workers = par.NewBudget(8)
	parallel := Compile(w, opts)

	if !reflect.DeepEqual(serial.images, parallel.images) {
		t.Fatal("images differ")
	}
	if !reflect.DeepEqual(serial.prof, parallel.prof) {
		t.Fatal("profile tables differ")
	}
	if !reflect.DeepEqual(serial.fine, parallel.fine) {
		t.Fatal("fine tables differ")
	}
	if !reflect.DeepEqual(serial.vols, parallel.vols) {
		t.Fatal("volume lists differ")
	}
	if !reflect.DeepEqual(serial.planned, parallel.planned) {
		t.Fatal("planned volume lists differ")
	}
	if serial.steps != parallel.steps || serial.samples != parallel.samples {
		t.Fatal("table shapes differ")
	}

	// A streamed 5 s fine table beside a resident profile table: the
	// profiles Compile fills and every window the cursors refill match.
	opts = CompileOptions{Samples: 12}
	opts.MaxFineTableBytes = 2 * Compile(w, opts).fine.slotPeak
	serial = Compile(w, opts)
	opts.Workers = par.NewBudget(8)
	parallel = Compile(w, opts)
	if serial.FineChunkSlots() != 2 || parallel.FineChunkSlots() != 2 {
		t.Fatal("expected a streamed 5 s fine table")
	}
	if !reflect.DeepEqual(serial.prof, parallel.prof) {
		t.Fatal("streamed-compile profile tables differ")
	}
	sameRows(t, "streamed 5 s", serial, parallel, opts.Workers)
}
