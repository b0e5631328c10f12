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

// TestCoreReadsThroughLayer lints a fixture as if it were internal/core
// (and, as a dependency, the real internal/core): a capability probe
// and a direct source call are allowed in stack.go and flagged in any
// other file, source.go included.
func TestCoreReadsThroughLayer(t *testing.T) {
	findings, err := lint([]string{"./testdata/coreprobe"},
		map[string]string{"repro/cmd/reprolint/testdata/coreprobe": "internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"admission.go:7:", "source.go:15:"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want one at %s", i, findings[i], w)
		}
	}
}

// TestRule4SlogDefault lints a fixture as if it were an internal
// package: the calls that log through or replace slog's process
// default logger are flagged, a handed-in logger and slog.New are not.
func TestRule4SlogDefault(t *testing.T) {
	findings, err := lint([]string{"./testdata/slogdefault"},
		map[string]string{"repro/cmd/reprolint/testdata/slogdefault": "internal/sitehunt"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"slogdefault.go:14:2: slog.Info", "slogdefault.go:15:2: slog.Default", "slogdefault.go:16:2: slog.SetDefault"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want one at %s", i, findings[i], w)
		}
	}
}
