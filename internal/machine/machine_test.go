package machine

import (
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	hsw := CoriHaswell(8)
	if hsw.TotalCores() != 256 {
		t.Fatalf("Haswell cores = %d", hsw.TotalCores())
	}
	knl := CoriKNL(32)
	if knl.TotalCores() != 2048 {
		t.Fatalf("KNL cores = %d", knl.TotalCores())
	}
	if err := hsw.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := knl.Validate(); err != nil {
		t.Fatal(err)
	}
	if knl.SerialPenalty <= hsw.SerialPenalty {
		t.Fatal("KNL serial penalty should exceed Haswell")
	}
	if hsw.TotalMemGB() <= 0 {
		t.Fatal("memory must be positive")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	m := Machine{Name: "broken"}
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation failure")
	}
	m = CoriHaswell(2)
	m.NetBWGBs = 0
	if err := m.Validate(); err == nil {
		t.Fatal("expected rate failure")
	}
}

func TestString(t *testing.T) {
	s := CoriHaswell(4).String()
	if !strings.Contains(s, "Cori") || !strings.Contains(s, "4 nodes") {
		t.Fatalf("String = %q", s)
	}
}
