// Package obs is the repo's stdlib-only observability substrate: a
// concurrent-safe metrics registry (counters, gauges, histograms with
// fixed bucket boundaries and atomic hot paths), and hierarchical
// tracing spans. A text exporter renders the registry in Prometheus
// exposition format, and an optional net/http mux serves /metrics,
// /debug/vars (expvar bridge), and /debug/pprof for runtime
// introspection. Progress logging is log/slog: New builds the
// key=value text logger the commands hand to library code, and
// OrDiscard lets a library read an unset *slog.Logger as one that
// drops every record.
//
// Every instrument tolerates a nil receiver: instrumented code can run
// with observability disabled at zero configuration cost, since a nil
// *Registry hands out nil instruments whose methods are no-ops.
//
// Metric names follow Prometheus conventions (snake_case, _total for
// counters, _seconds for durations) under the daas_ prefix; see the
// README's Observability section for the full name inventory and
// DESIGN.md for the mapping from metric to paper section.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"strings"
)

// Severity levels for New, least to most severe.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// New returns a logger writing key=value lines at or above level to w.
func New(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// OrDiscard returns l, or a logger that drops every record when l is
// nil, so a library can leave its Logger field unset.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

// discard is enabled at no level, so its records are never built.
var discard = New(io.Discard, math.MaxInt)

// Attr is one key/value attribute attached to a span.
type Attr struct {
	Key   string
	Value any
}

// formatValue renders an attribute value for key=value output, quoting
// strings that would break the format.
func formatValue(v any) string {
	s, isString := v.(string)
	if !isString {
		if err, isErr := v.(error); isErr && err != nil {
			s, isString = err.Error(), true
		} else {
			s = fmt.Sprint(v)
		}
	}
	if needsQuoting(s) || (isString && s == "") {
		return strconv.Quote(s)
	}
	return s
}

func needsQuoting(s string) bool {
	return strings.ContainsAny(s, " \t\n\"=")
}
