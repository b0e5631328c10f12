package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed region of the traced run. Spans of one op share
// Op; Parent is 0 for an op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	// StartNS is the offset from the start of the traced phase, or -1
	// for spans imported from the program's own recorder, which keeps
	// only durations.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(parent, op int, name, class string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Class: class,
		StartNS: int64(start.Sub(t.t0)), DurNS: int64(dur)})
	return id
}

// finish sets the parent and duration of a span added before either
// was known.
func (t *tracer) finish(id, parent int, dur time.Duration) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
	t.spans[id-1].DurNS = int64(dur)
}

// addObs imports a span tree recorded by the program's obs.Recorder
// under parent.
func (t *tracer) addObs(parent, op int, s *obs.Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: s.Name(), StartNS: -1, DurNS: int64(s.Duration())})
	t.mu.Unlock()
	for _, c := range s.Children() {
		t.addObs(id, op, c)
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return bw.Flush()
}
