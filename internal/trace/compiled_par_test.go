package trace

import (
	"reflect"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// TestCompileParallelMatchesSerial proves a sharded compilation produces
// exactly the serial tables: fine rows, profiles, volume lists, active
// windows and images, compared structurally.
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
}
