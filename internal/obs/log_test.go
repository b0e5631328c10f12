package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// capture returns a logger that collects one line per record with the
// leading time= field cut off, for exact-match assertions.
func capture() (*Logger, *[]string) {
	lines := new([]string)
	return New(lineWriter{lines}, LevelDebug), lines
}

// lineWriter appends each record it is handed to lines, without its
// time= field and trailing newline.
type lineWriter struct{ lines *[]string }

func (w lineWriter) Write(p []byte) (int, error) {
	_, rest, _ := strings.Cut(strings.TrimSuffix(string(p), "\n"), " ")
	*w.lines = append(*w.lines, rest)
	return len(p), nil
}

func TestLoggerFormat(t *testing.T) {
	l, lines := capture()
	l.Info("pipeline started", "iter", 3, "frontier", 17)
	l.Error("fetch failed", "err", fmt.Errorf("boom"))
	want := []string{
		`level=info msg="pipeline started" iter=3 frontier=17`,
		`level=error msg="fetch failed" err=boom`,
	}
	if len(*lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %q", len(*lines), len(want), *lines)
	}
	for i := range want {
		if (*lines)[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, (*lines)[i], want[i])
		}
	}
}

func TestLoggerQuoting(t *testing.T) {
	l, lines := capture()
	l.Info("msg", "path", "/tmp/a b", "eq", "k=v", "plain", "bare")
	got := (*lines)[0]
	want := `level=info msg=msg path="/tmp/a b" eq="k=v" plain=bare`
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestLoggerOddKV(t *testing.T) {
	l, lines := capture()
	l.Info("m", "dangling")
	if got, want := (*lines)[0], `level=info msg=m dangling=(MISSING)`; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	l, lines := capture()
	l.SetLevel(LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	if len(*lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(*lines), *lines)
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Fatal("Enabled disagrees with the configured level")
	}
}

func TestLoggerWith(t *testing.T) {
	l, lines := capture()
	child := l.With("component", "pipeline")
	child.Info("tick", "iter", 1)
	l.Info("bare")
	want := []string{
		`level=info msg=tick component=pipeline iter=1`,
		`level=info msg=bare`, // parent must not inherit the child's attrs
	}
	for i := range want {
		if (*lines)[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, (*lines)[i], want[i])
		}
	}
}

func TestLoggerTimestamp(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Info("hello")
	line := buf.String()
	if !strings.HasPrefix(line, "time=") {
		t.Fatalf("New logger line missing time= prefix: %q", line)
	}
	if !strings.Contains(line, `level=info msg=hello`) {
		t.Fatalf("unexpected line: %q", line)
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn", LevelError: "error", Level(9): "level(9)",
	} {
		if got := lv.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lv, got, want)
		}
	}
}
