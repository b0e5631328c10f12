package main

import (
	"strings"
	"testing"
)

// TestRule7CapabilityProbeOutsideCore lints a fixture package with one
// planted assertion on core.BatchSource (and one allowed concrete
// assertion): exactly one finding, at the planted line.
func TestRule7CapabilityProbeOutsideCore(t *testing.T) {
	findings, err := run([]string{"./testdata/probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	if !strings.Contains(findings[0], "probe.go:9:") || !strings.Contains(findings[0], "core.BatchSource") {
		t.Errorf("finding = %q, want the core.BatchSource assertion at probe.go:9", findings[0])
	}
}
