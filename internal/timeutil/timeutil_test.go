package timeutil

import (
	"testing"
	"testing/quick"
)

func TestConstantsConsistent(t *testing.T) {
	if StepsPerSlot != 720 {
		t.Fatalf("StepsPerSlot = %d, want 720 (3600/5)", StepsPerSlot)
	}
	if SlotsPerWeek != 168 {
		t.Fatalf("SlotsPerWeek = %d, want 168", SlotsPerWeek)
	}
}

func TestStepSlotRoundTrip(t *testing.T) {
	tests := []struct {
		step Step
		slot Slot
	}{
		{0, 0},
		{719, 0},
		{720, 1},
		{720*24 - 1, 23},
		{720 * 24, 24},
	}
	for _, tt := range tests {
		if got := tt.step.Slot(); got != tt.slot {
			t.Errorf("Step(%d).Slot() = %d, want %d", tt.step, got, tt.slot)
		}
	}
}

func TestSlotStartInverse(t *testing.T) {
	f := func(n uint16) bool {
		sl := Slot(n)
		return sl.Start().Slot() == sl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotCalendar(t *testing.T) {
	sl := Slot(49) // day 2, 01:00 UTC
	if sl.Day() != 2 || sl.HourUTC() != 1 {
		t.Fatalf("Slot(49): day=%d hour=%d, want 2, 1", sl.Day(), sl.HourUTC())
	}
	if got := sl.String(); got != "day 2 01:00" {
		t.Fatalf("String() = %q", got)
	}
}

func TestZoneLocalHourOfSlot(t *testing.T) {
	tests := []struct {
		zone Zone
		slot Slot
		want float64
	}{
		{ZoneLisbon, 0, 0},
		{ZoneZurich, 0, 1},
		{ZoneHelsinki, 0, 2},
		{ZoneHelsinki, 23, 1}, // 23:00 UTC + 2 = 01:00 next day
		{ZoneZurich, 167, 0},  // 23:00 UTC day 6 + 1
	}
	for _, tt := range tests {
		if got := tt.zone.LocalHour(tt.slot.Seconds()); got != tt.want {
			t.Errorf("zone %d slot %d: local hour = %v, want %v", tt.zone, tt.slot, got, tt.want)
		}
	}
}

func TestZoneLocalHourFractional(t *testing.T) {
	// 10:30 UTC in Helsinki is 12:30.
	got := ZoneHelsinki.LocalHour(10*3600 + 1800)
	if got != 12.5 {
		t.Fatalf("LocalHour = %v, want 12.5", got)
	}
}

func TestZoneLocalHourInRange(t *testing.T) {
	f := func(sec uint32, z uint8) bool {
		zone := Zone(z % 24)
		h := zone.LocalHour(float64(sec))
		return h >= 0 && h < 24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHorizons(t *testing.T) {
	if Week().Slots != 168 {
		t.Fatalf("Week() = %d slots", Week().Slots)
	}
	if Days(2).Slots != 48 {
		t.Fatalf("Days(2) = %d slots", Days(2).Slots)
	}
	if Hours(5).Slots != 5 {
		t.Fatalf("Hours(5) = %d slots", Hours(5).Slots)
	}
	if Week().Steps() != 168*720 {
		t.Fatalf("Week().Steps() = %d", Week().Steps())
	}
}

func TestStepSeconds(t *testing.T) {
	if got := Step(12).Seconds(); got != 60 {
		t.Fatalf("Step(12).Seconds() = %v, want 60", got)
	}
}
