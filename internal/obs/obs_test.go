package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelDebug)
	l.Info("pipeline started", "iter", 3, "frontier", 17)
	l.Error("fetch failed", "err", fmt.Errorf("boom"))
	want := []string{
		`level=INFO msg="pipeline started" iter=3 frontier=17`,
		`level=ERROR msg="fetch failed" err=boom`,
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %q", len(lines), len(want), lines)
	}
	for i, line := range lines {
		_, rest, _ := strings.Cut(line, " ") // drop time=…
		if rest != want[i] {
			t.Errorf("line %d = %q, want %q after the time", i, rest, want[i])
		}
	}
}

func TestLoggerTimestamp(t *testing.T) {
	var buf bytes.Buffer
	New(&buf, LevelInfo).Info("hello")
	line := buf.String()
	if !strings.HasPrefix(line, "time=") {
		t.Fatalf("New logger line missing time= prefix: %q", line)
	}
	if !strings.Contains(line, `level=INFO msg=hello`) {
		t.Fatalf("unexpected line: %q", line)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("got %d lines, want 2: %q", n, buf.String())
	}
	ctx := context.Background()
	if !l.Enabled(ctx, LevelError) || l.Enabled(ctx, LevelInfo) {
		t.Fatal("Enabled disagrees with the configured level")
	}
	if OrDiscard(nil).Enabled(ctx, LevelError) {
		t.Fatal("the discard logger is enabled")
	}
	if OrDiscard(l) != l {
		t.Fatal("OrDiscard replaced a set logger")
	}
}
