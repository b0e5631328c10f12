package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/radar"
)

// The traced run must take the same path through the program as the
// untraced one; identical exports are the observable half of that.

func TestTracedStudyExportMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-0.05 world")
	}
	s := &studyWorkload{}
	if err := s.setup(7); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	plain, err := s.op(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := s.op(newTracer(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.study.Dataset.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.study.Dataset.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("traced study dataset export differs from the untraced one")
	}
	if !bytes.Equal(plain.snapshot, traced.snapshot) {
		t.Error("traced study snapshot bytes differ from the untraced ones")
	}
	if n, _ := traced.source.load(); n == 0 {
		t.Error("the traced op's chain source saw no calls")
	}
	if n, _ := traced.crawlStats.load(); n == 0 {
		t.Error("the traced op's crawler transport saw no requests")
	}
}

func TestTracedRadarExportMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-0.02 world")
	}
	w := &radarWorkload{}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	const limit = 20 * reorgWindow
	export := func(traced bool) (*result, []byte, []byte) {
		res := &result{classes: map[string][]float64{}, layers: map[string]float64{}}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		r, err := w.replay(res, limit, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 {
			t.Fatal(res.problems)
		}
		return res, exportRadar(t, r), familiesJSON(t, r)
	}
	_, ds, fams := export(false)
	res, tds, tfams := export(true)
	if !bytes.Equal(ds, tds) {
		t.Error("traced radar dataset export differs from the untraced one")
	}
	if !bytes.Equal(fams, tfams) {
		t.Error("traced radar family export differs from the untraced one")
	}
	if res.layers["source.calls"] == 0 || res.layers["blocks.calls"] == 0 {
		t.Errorf("traced replay saw %v source and %v block calls", res.layers["source.calls"], res.layers["blocks.calls"])
	}
}

func exportRadar(t *testing.T, r *radar.Radar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func familiesJSON(t *testing.T, r *radar.Radar) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Families(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScreenPhaseChecksEveryVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-0.05 world")
	}
	w := &screenWorkload{}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, tr := range []*tracer{nil, newTracer()} {
		res, err := w.measure(time.Second, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.attempted != screenRate || res.failed != 0 || len(res.problems) != 0 {
			t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.problems)
		}
		if tr != nil && (res.layers["rpc.server_ms"] <= 0 || res.layers["rpc.roundtrip_ms"] < res.layers["rpc.server_ms"]) {
			t.Errorf("traced split: server %v ms, round trip %v ms", res.layers["rpc.server_ms"], res.layers["rpc.roundtrip_ms"])
		}
	}
}
