package loadgen

import (
	"bytes"
	"fmt"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// PipelineConfig tunes RunPipeline.
type PipelineConfig struct {
	// Builds is how many complete §5.1 pipeline builds to run
	// back-to-back. Default 1.
	Builds int
	// Concurrency is the pipeline's fetch worker count (0 = the
	// pipeline default).
	Concurrency int
	// CacheSize bounds the fetch cache on top of the source stack
	// (daas.NewStack), as in a daas.Client: 0 holds every record the
	// builds read, a positive size keeps at most that many (LRU).
	CacheSize int
}

// PipelineResult summarizes repeated full-pipeline builds under load:
// wall-time quantiles across builds, the dataset shape (a determinism
// check as much as a result), and the metric snapshot the run
// produced.
type PipelineResult struct {
	Builds         int     `json:"builds"`
	ProfitTxs      int     `json:"profit_txs"`
	Contracts      int     `json:"contracts"`
	MeanSeconds    float64 `json:"mean_seconds"`
	P50Seconds     float64 `json:"p50_seconds"`
	P95Seconds     float64 `json:"p95_seconds"`
	P99Seconds     float64 `json:"p99_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Identical reports whether every build exported byte-identical
	// JSON — the invariant that separates a load harness from a fuzzer.
	Identical bool `json:"identical"`
	// Export is the first build's dataset JSON, so callers can compare
	// against an unloaded baseline build.
	Export []byte `json:"-"`
	// Metrics is the run's private registry, snapshotted at the end.
	Metrics obs.Snapshot `json:"-"`
}

// RunPipeline runs cfg.Builds complete pipeline builds over the world
// through the production source stack (metrics, integrity and the
// cache, all builds sharing one stack), timing each build
// into daas_loadgen_build_duration_seconds.
func RunPipeline(w *worldgen.World, cfg PipelineConfig) (*PipelineResult, error) {
	if w == nil {
		return nil, fmt.Errorf("loadgen: no world")
	}
	builds := cfg.Builds
	if builds <= 0 {
		builds = 1
	}
	reg := obs.NewRegistry()
	buildHist := reg.Histogram("daas_loadgen_build_duration_seconds", "full pipeline build wall time under loadgen", obs.DefDurationBuckets)

	src := daas.NewStack(core.LocalSource{Chain: w.Chain}, daas.StackConfig{Metrics: reg, CacheSize: cfg.CacheSize}).Cached()

	res := &PipelineResult{Builds: builds, Identical: true}
	start := obs.Now()
	for i := 0; i < builds; i++ {
		p := &core.Pipeline{
			Source:      src,
			Labels:      w.Labels,
			Concurrency: cfg.Concurrency,
			Metrics:     reg,
		}
		buildStart := obs.Now()
		ds, err := p.Build()
		buildHist.ObserveDuration(obs.Since(buildStart))
		if err != nil {
			return nil, fmt.Errorf("loadgen: build %d: %w", i+1, err)
		}
		var buf bytes.Buffer
		if err := ds.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("loadgen: export build %d: %w", i+1, err)
		}
		if i == 0 {
			res.Export = buf.Bytes()
			stats := ds.Stats()
			res.ProfitTxs = stats.ProfitTxs
			res.Contracts = stats.Contracts
		} else if !bytes.Equal(res.Export, buf.Bytes()) {
			res.Identical = false
		}
	}
	res.ElapsedSeconds = obs.Since(start).Seconds()

	snap := reg.Snapshot()
	res.Metrics = snap
	if smp := snap.Find("daas_loadgen_build_duration_seconds"); smp != nil && smp.Hist != nil && smp.Hist.Count > 0 {
		res.MeanSeconds = smp.Hist.Mean()
		res.P50Seconds = smp.Hist.Quantile(0.50)
		res.P95Seconds = smp.Hist.Quantile(0.95)
		res.P99Seconds = smp.Hist.Quantile(0.99)
	}
	return res, nil
}
