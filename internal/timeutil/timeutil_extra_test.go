package timeutil

import "testing"

func TestSlotSeconds(t *testing.T) {
	if Slot(2).Seconds() != 7200 {
		t.Fatalf("Slot(2).Seconds() = %v", Slot(2).Seconds())
	}
}

func TestSlotStart(t *testing.T) {
	if Slot(3).Start() != 2160 {
		t.Fatalf("Slot(3).Start() = %d, want 2160 steps", Slot(3).Start())
	}
}

func TestZoneNegativeWrap(t *testing.T) {
	// A hypothetical western zone must wrap into [0, 24).
	z := Zone(-5)
	h := z.LocalHour(2 * 3600) // 02:00 UTC - 5 = 21:00 previous day
	if h != 21 {
		t.Fatalf("LocalHour = %v, want 21", h)
	}
}

func TestHorizonAccessors(t *testing.T) {
	h := Days(3)
	if h.Steps() != Step(3*24*720) {
		t.Fatalf("Steps() = %d", h.Steps())
	}
}
