// Integration test: run the real snowball pipeline over the
// deterministic worldgen dataset with a fresh registry and assert that
// the recorded metrics agree with the dataset the run produced.
package obs_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

func TestPipelineMetricsIntegration(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(1910))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	src := core.NewTop(core.NewLeaf(core.LocalSource{Chain: w.Chain}, reg))
	p := &core.Pipeline{
		Source:  src,
		Labels:  w.Labels,
		Metrics: reg,
		Spans:   rec,
	}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 {
		// Re-registering with the same kind and label set returns the
		// live family, so this reads the recorded value.
		return reg.Counter(name, "").Value()
	}
	method := func(name, m string) uint64 {
		return reg.CounterVec(name, "", "method").With(m).Value()
	}

	if counter("daas_pipeline_iterations_total") == 0 {
		t.Error("pipeline recorded zero expansion iterations")
	}
	txFetched := counter("daas_pipeline_tx_fetched_total")
	if txFetched == 0 {
		t.Error("pipeline recorded zero fetched transactions")
	}
	if scanned := counter("daas_pipeline_accounts_scanned_total"); scanned == 0 {
		t.Error("pipeline recorded zero scanned accounts")
	}

	// Every successful fetch is one Transaction plus one Receipt call on
	// the instrumented source; the local simulator never fails, so the
	// per-method counters must agree exactly with the pipeline's count.
	txCalls := method("daas_chain_requests_total", "Transaction")
	rcCalls := method("daas_chain_requests_total", "Receipt")
	if txCalls != txFetched || rcCalls != txFetched {
		t.Errorf("chain source calls (Transaction=%d, Receipt=%d) disagree with tx_fetched=%d",
			txCalls, rcCalls, txFetched)
	}
	if errs := method("daas_chain_request_errors_total", "Transaction"); errs != 0 {
		t.Errorf("local source recorded %d Transaction errors", errs)
	}
	if lat := reg.HistogramVec("daas_chain_request_duration_seconds", "", nil, "method").With("Transaction"); lat.Count() != txCalls {
		t.Errorf("latency histogram count=%d, want one sample per call (%d)", lat.Count(), txCalls)
	}

	// The classifier counter is keyed by per-mille ratio; every ratio
	// present in the dataset must have been counted at least as often as
	// it is stored (the expansion may classify a split more than once).
	splits := reg.CounterVec("daas_classifier_splits_total", "", "ratio_pm")
	stored := make(map[int64]uint64)
	for _, sps := range ds.Splits {
		for _, sp := range sps {
			stored[sp.RatioPM]++
		}
	}
	if len(stored) == 0 {
		t.Fatal("worldgen dataset has no profit-sharing splits; test world broken")
	}
	for pm, n := range stored {
		got := splits.With(strconv.FormatInt(pm, 10)).Value()
		if got < n {
			t.Errorf("ratio %d‰: counter=%d < %d splits stored in the dataset", pm, got, n)
		}
	}

	// The whole run hangs off one recorded root span with per-iteration
	// children.
	roots := rec.Roots()
	if len(roots) != 1 || roots[0].Name() != "pipeline.build" {
		t.Fatalf("recorded roots = %v, want exactly [pipeline.build]", roots)
	}
	var iters uint64
	for _, c := range roots[0].Children() {
		if c.Name() == "pipeline.expand.iter" {
			iters++
		}
	}
	if iters != counter("daas_pipeline_iterations_total") {
		t.Errorf("span tree has %d expand.iter children, counter says %d",
			iters, counter("daas_pipeline_iterations_total"))
	}

	// And the exposition carries the same numbers end to end.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	want := "daas_pipeline_tx_fetched_total " + strconv.FormatUint(txFetched, 10) + "\n"
	if !strings.Contains(expo, want) {
		t.Errorf("exposition missing %q", strings.TrimSpace(want))
	}
	if !strings.Contains(expo, `daas_chain_request_duration_seconds_bucket{method="Transaction",le="+Inf"} `) {
		t.Error("exposition missing the chain latency histogram")
	}
}
