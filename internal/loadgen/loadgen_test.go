package loadgen

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

func testWorld(t testing.TB) *worldgen.World {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestScheduleDeterministic: the op schedule is a pure function of the
// seed — same seed same schedule, different seed different schedule.
func TestScheduleDeterministic(t *testing.T) {
	w := testWorld(t)
	g1 := FromWorld(w, Config{Seed: 42, Ops: 500})
	g2 := FromWorld(w, Config{Seed: 42, Ops: 500})
	s1, err := g1.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := g2.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 500 {
		t.Fatalf("schedule length = %d, want 500", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	g3 := FromWorld(w, Config{Seed: 43, Ops: 500})
	s3, err := g3.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}
	// Every enabled op appears with the default mix at this size.
	seen := map[Op]bool{}
	for _, tk := range s1 {
		seen[tk.op] = true
	}
	for _, op := range allOps {
		if !seen[op] {
			t.Errorf("op %s never scheduled in 500 ops", op)
		}
	}
}

func TestScheduleRejectsEmptyMix(t *testing.T) {
	w := testWorld(t)
	g := FromWorld(w, Config{Seed: 1, Ops: 10, Mix: map[Op]int{OpTransaction: 0}})
	if _, err := g.Schedule(); err == nil {
		t.Fatal("expected error for all-zero mix")
	}
}

// TestClosedLoopRun: a closed-loop run completes every op, records
// per-op stats whose counts sum to Ops, and reports zero errors
// against a healthy local source.
func TestClosedLoopRun(t *testing.T) {
	w := testWorld(t)
	reg := obs.NewRegistry()
	g := FromWorld(w, Config{Seed: 9, Ops: 400, Concurrency: 4, Registry: reg})
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Errorf("mode = %q, want closed", res.Mode)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d, want 0", res.Errors)
	}
	var total uint64
	for _, st := range res.PerOp {
		total += st.Count
		if st.P50Seconds > st.P99Seconds {
			t.Errorf("op %s: p50 %g > p99 %g", st.Op, st.P50Seconds, st.P99Seconds)
		}
	}
	if total != 400 {
		t.Errorf("per-op counts sum to %d, want 400", total)
	}
	if res.AchievedRate <= 0 {
		t.Errorf("achieved rate = %g, want > 0", res.AchievedRate)
	}
	// Re-running on the same registry must diff cleanly, not
	// double-count the first run.
	res2, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, st := range res2.PerOp {
		total += st.Count
	}
	if total != 400 {
		t.Errorf("second run per-op counts sum to %d, want 400 (snapshot diff leaked)", total)
	}
}

// TestOpenLoopRun: open-loop mode paces dispatch at the offered rate
// and still completes every op.
func TestOpenLoopRun(t *testing.T) {
	w := testWorld(t)
	g := FromWorld(w, Config{Seed: 5, Ops: 100, Concurrency: 4, Rate: 5000})
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" {
		t.Errorf("mode = %q, want open", res.Mode)
	}
	if res.OfferedRate != 5000 {
		t.Errorf("offered rate = %g, want 5000", res.OfferedRate)
	}
	var total uint64
	for _, st := range res.PerOp {
		total += st.Count
	}
	if total != 100 {
		t.Errorf("per-op counts sum to %d, want 100", total)
	}
}

// TestErrorsCounted: a source that fails some calls shows up in both
// the result total and the per-op error counters.
type failingSource struct {
	core.ChainSource
}

func (failingSource) IsContract(_ ethtypes.Address) (bool, error) {
	return false, errFail
}

var errFail = errTest("injected failure")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestErrorsCounted(t *testing.T) {
	w := testWorld(t)
	g := FromWorld(w, Config{
		Seed: 3, Ops: 50,
		Mix: map[Op]int{OpIsContract: 1},
	})
	g.Source = failingSource{ChainSource: core.LocalSource{Chain: w.Chain}}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 50 {
		t.Fatalf("errors = %d, want 50", res.Errors)
	}
	if len(res.PerOp) != 1 || res.PerOp[0].Errors != 50 {
		t.Fatalf("per-op errors = %+v, want IsContract=50", res.PerOp)
	}
}

// TestPipelineByteIdentical: a loadgen-driven pipeline build through
// the full decorator stack exports byte-identical JSON to a bare
// unloaded build — the harness must never perturb the dataset — and
// finds this world's 860 profit-sharing transactions, the build
// BenchmarkLoadgenPipeline times.
func TestPipelineByteIdentical(t *testing.T) {
	w := testWorld(t)
	res, err := RunPipeline(w, PipelineConfig{Builds: 2, Concurrency: 4, CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("repeated loadgen builds diverged")
	}
	if res.ProfitTxs != 860 {
		t.Errorf("profit-sharing transactions = %d, want 860", res.ProfitTxs)
	}
	if res.P50Seconds <= 0 || res.P99Seconds < res.P50Seconds {
		t.Errorf("build quantiles implausible: p50=%g p99=%g", res.P50Seconds, res.P99Seconds)
	}

	p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := ds.WriteJSON(&baseline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Export, baseline.Bytes()) {
		t.Fatal("loadgen pipeline export differs from unloaded build")
	}
	if smp := res.Metrics.Find("daas_chain_requests_total", "Transaction"); smp == nil || smp.Counter == 0 {
		t.Error("instrumented source recorded no Transaction requests")
	}
}
