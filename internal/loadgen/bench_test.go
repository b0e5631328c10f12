package loadgen

import (
	"net/http/httptest"
	"testing"

	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// reportQuantiles attaches an op-latency distribution to the benchmark
// line so benchdiff can gate on tail latency, not just ns/op.
func reportQuantiles(b *testing.B, res *Result) {
	b.Helper()
	var p50, p95, p99 float64
	var n uint64
	for _, st := range res.PerOp {
		// Weighted blend across ops keeps the metric scalar.
		w := float64(st.Count)
		p50 += st.P50Seconds * w
		p95 += st.P95Seconds * w
		p99 += st.P99Seconds * w
		n += st.Count
	}
	if n > 0 {
		f := 1e6 / float64(n)
		b.ReportMetric(p50*f, "p50-us")
		b.ReportMetric(p95*f, "p95-us")
		b.ReportMetric(p99*f, "p99-us")
	}
	b.ReportMetric(res.AchievedRate, "achieved-ops-s")
}

// BenchmarkLoadgenSource: closed-loop mixed ops against the bare
// in-process simulator — the floor every decorator stack is measured
// against.
func BenchmarkLoadgenSource(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromWorld(w, Config{Seed: 11, Ops: 2000, Concurrency: 4})
		res, err = g.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportQuantiles(b, res)
}

// BenchmarkLoadgenOpenLoop: open-loop arrivals at a fixed offered
// rate; the interesting numbers are tail latency and dispatch lag
// under a paced schedule.
func BenchmarkLoadgenOpenLoop(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromWorld(w, Config{Seed: 11, Ops: 1000, Concurrency: 4, Rate: 50000})
		res, err = g.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportQuantiles(b, res)
	b.ReportMetric(res.DispatchLagP99Seconds*1e6, "lag-p99-us")
}

// BenchmarkLoadgenPipeline: full §5.1 builds under the production
// decorator stack; gates the end-to-end build latency quantiles. The
// dataset it builds is pinned by TestPipelineByteIdentical.
func BenchmarkLoadgenPipeline(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	var res *PipelineResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = RunPipeline(w, PipelineConfig{Builds: 1, Concurrency: 4, CacheSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.P50Seconds*1e3, "build-p50-ms")
	b.ReportMetric(res.P99Seconds*1e3, "build-p99-ms")
}

// reportScreenQuantiles attaches the screening run's batch-latency
// distribution and throughput to the benchmark line. The verdicts
// themselves are pinned by TestScreenSwapUnderLoadByteIdentical and
// TestScreenBatchRPCByteIdentical.
func reportScreenQuantiles(b *testing.B, res *ScreenRunResult) {
	b.Helper()
	b.ReportMetric(res.BatchP50Seconds*1e6, "p50-us")
	b.ReportMetric(res.BatchP95Seconds*1e6, "p95-us")
	b.ReportMetric(res.BatchP99Seconds*1e6, "p99-us")
	b.ReportMetric(res.AchievedLookups, "achieved-ops-s")
}

// BenchmarkScreenBatch: closed-loop screening batches against the
// in-process engine while a background swapper continuously rebuilds
// and installs fresh snapshots — the p99-gated swap-under-load
// scenario behind BENCH_screen.json.
func BenchmarkScreenBatch(b *testing.B) {
	addrs, snap := screenUniverse()
	eng := screen.NewEngine(nil)
	eng.Swap(snap)
	var res *ScreenRunResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &ScreenGenerator{
			Screen:    EngineScreener(eng),
			Addresses: addrs,
			Config:    screenEngineConfig,
			Swapper: func() {
				_, rebuilt := screenUniverse()
				eng.Swap(rebuilt)
			},
		}
		res, err = g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors != 0 {
			b.Fatalf("%d batch errors", res.Errors)
		}
	}
	b.StopTimer()
	reportScreenQuantiles(b, res)
}

// BenchmarkScreenBatchRPC: the same schedule over the wire —
// daas_screenBatch via httptest server + rpc client, the deployment
// shape of daasctl serve-screen.
func BenchmarkScreenBatchRPC(b *testing.B) {
	addrs, snap := screenUniverse()
	eng := screen.NewEngine(nil)
	eng.Swap(snap)
	srv := httptest.NewServer(&rpc.Server{Screen: eng})
	defer srv.Close()
	remote := rpcScreener(rpc.NewClient(srv.URL))
	var res *ScreenRunResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &ScreenGenerator{
			Screen:    remote,
			Addresses: addrs,
			Config:    screenRPCConfig,
		}
		res, err = g.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportScreenQuantiles(b, res)
}

// BenchmarkRadarStream: the live-detection streaming workload behind
// BENCH_radar.json — replay the generated chain through the radar
// daemon while screening batches run against the engine it keeps
// hot-swapping. Gates step latency and screening tail latency under
// radar-driven swap churn; TestRadarStreamDeterministic pins the
// dataset the stream builds.
func BenchmarkRadarStream(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	var res *RadarRunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = RunRadar(w, RadarConfig{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.StepP50Seconds*1e3, "step-p50-ms")
	b.ReportMetric(res.StepP99Seconds*1e3, "step-p99-ms")
	b.ReportMetric(res.ScreenP50Seconds*1e6, "p50-us")
	b.ReportMetric(res.ScreenP95Seconds*1e6, "p95-us")
	b.ReportMetric(res.ScreenP99Seconds*1e6, "p99-us")
	b.ReportMetric(res.BlocksPerSecond, "blocks-s")
}

// BenchmarkLoadgenRPC: the same mixed-op workload over a real HTTP
// JSON-RPC hop (httptest server + rpc client) — the wire-protocol
// suite behind BENCH_rpc.json.
func BenchmarkLoadgenRPC(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServer(w.Chain, w.Labels))
	defer srv.Close()
	client := rpc.NewClient(srv.URL)
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromWorld(w, Config{Seed: 11, Ops: 500, Concurrency: 8})
		g.Source = client
		res, err = g.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportQuantiles(b, res)
}
