package gptunecrowd

import (
	"os/exec"
	"testing"
)

// TestArchitectureGates runs scripts/gates.sh, the table of design
// decisions (deleted identifiers, call sites, pinned signatures and
// option fields) that CI also checks.
func TestArchitectureGates(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash is not on PATH")
	}
	if out, err := exec.Command("bash", "scripts/gates.sh").CombinedOutput(); err != nil {
		t.Fatalf("scripts/gates.sh: %v\n%s", err, out)
	}
}
