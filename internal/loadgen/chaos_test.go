package loadgen

import (
	"testing"

	"repro/internal/worldgen"
)

// TestChaosSoak is the soak gate: a hardened server under mixed
// good/hostile traffic with a mid-run upstream outage must shed
// instead of stall, keep answering stale-stamped verdicts, recover
// fresh on heal, and still export byte-identically to the batch
// pipeline. Run with -race in check.sh.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak sleeps through a >1s outage; skipped in -short")
	}
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunChaos(w, ChaosConfig{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos soak: %+v", res)

	if res.Panics != 0 {
		t.Errorf("server panicked %d times under chaos", res.Panics)
	}
	if res.BadEnvelopes != 0 {
		t.Errorf("good clients saw %d malformed/unexpected responses", res.BadEnvelopes)
	}
	if res.Accepted == 0 {
		t.Error("no good traffic was accepted")
	}
	if res.Shed == 0 {
		t.Error("overload gate never shed despite MaxInFlight 2 and concurrent workers")
	}
	if res.MaxStale == 0 {
		t.Error("no degraded-mode verdict carried a snapshotAge stamp during the outage")
	}
	if res.OutageErrors == 0 {
		t.Error("injected outage never failed a radar step")
	}
	if res.FinalStale != 0 {
		t.Errorf("snapshot still stale %ds after heal", res.FinalStale)
	}
	if !res.ExportIdentical {
		t.Error("post-recovery radar export diverged from the batch pipeline")
	}
	if !res.CleanShutdown {
		t.Error("server did not shut down gracefully")
	}
	if res.AcceptedP99 > 5 {
		t.Errorf("accepted p99 %.3fs: server stalled instead of shedding", res.AcceptedP99)
	}
}

// BenchmarkChaos times the chaos soak for BENCH_chaos.json: benchdiff
// gates its accepted-request latency at the timing tolerance. The
// soak's invariants are TestChaosSoak's.
func BenchmarkChaos(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunChaos(w, ChaosConfig{Seed: 41})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AcceptedP50*1e6, "accepted-p50-us")
		b.ReportMetric(res.AcceptedP99*1e6, "accepted-p99-us")
	}
}
