package loadgen

import (
	"net/http/httptest"
	"testing"

	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/screen"
)

// The schedules BenchmarkScreenBatch and BenchmarkScreenBatchRPC time;
// the tests below pin their verdicts.
var (
	screenEngineConfig = ScreenConfig{Seed: 11, Batches: 500, BatchSize: 64, Concurrency: 4}
	screenRPCConfig    = ScreenConfig{Seed: 11, Batches: 100, BatchSize: 64, Concurrency: 8}
)

// screenUniverse builds a snapshot listing the even addresses of a
// 64-address universe, so roughly half the schedule's draws are hits.
func screenUniverse() ([]ethtypes.Address, *screen.Snapshot) {
	addrs := make([]ethtypes.Address, 64)
	b := screen.NewBuilder()
	for i := range addrs {
		addrs[i][0] = byte(i)
		addrs[i][19] = 0xee
		if i%2 == 0 {
			b.Add(screen.Record{Address: addrs[i], Kind: screen.KindOperator, Reason: screen.ReasonOperator})
		}
	}
	return addrs, b.Build()
}

// rpcScreener screens over the wire: daas_screenBatch through client.
func rpcScreener(client *rpc.Client) ScreenFunc {
	return func(batch []ethtypes.Address) ([]bool, error) {
		results, err := client.ScreenBatch(batch)
		if err != nil {
			return nil, err
		}
		out := make([]bool, len(results))
		for i, r := range results {
			out[i] = r.Listed
		}
		return out, nil
	}
}

// checkVerdicts fails t unless res holds, in schedule order, exactly
// screenUniverse's truth for g's schedule (an address is listed iff
// its index is even), and lists want addresses in all.
func checkVerdicts(t *testing.T, g *ScreenGenerator, res *ScreenRunResult, want uint64) {
	t.Helper()
	if res.Errors != 0 {
		t.Fatalf("%d batch errors", res.Errors)
	}
	schedule, err := g.ScreenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != len(schedule)*g.Config.BatchSize {
		t.Fatalf("%d verdicts for %d batches of %d", len(res.Verdicts), len(schedule), g.Config.BatchSize)
	}
	for bi, idxs := range schedule {
		for j, k := range idxs {
			if got := res.Verdicts[bi*g.Config.BatchSize+j]; got != (k%2 == 0) {
				t.Fatalf("batch %d lookup %d (address %d): listed = %v", bi, j, k, got)
			}
		}
	}
	if res.Listed != want {
		t.Errorf("listed = %d, want %d", res.Listed, want)
	}
}

func TestScreenScheduleDeterministic(t *testing.T) {
	addrs, _ := screenUniverse()
	g := &ScreenGenerator{Addresses: addrs, Config: ScreenConfig{Seed: 42, Batches: 10, BatchSize: 16}}
	a, err := g.ScreenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.ScreenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("schedule differs at [%d][%d]", i, j)
			}
		}
	}
	g.Config.Seed = 43
	c, err := g.ScreenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}

	bad := &ScreenGenerator{Config: ScreenConfig{Seed: 1, Batches: 1, BatchSize: 1}}
	if _, err := bad.ScreenSchedule(); err == nil {
		t.Error("empty universe accepted")
	}
}

// TestScreenSwapUnderLoadByteIdentical is the acceptance gate: a run
// with continuous snapshot churn returns exactly the verdict vector of
// an unloaded run over the same logical blacklist, and both equal the
// blacklist's truth over BenchmarkScreenBatch's schedule.
func TestScreenSwapUnderLoadByteIdentical(t *testing.T) {
	addrs, snap := screenUniverse()
	cfg := screenEngineConfig

	quiet := screen.NewEngine(nil)
	quiet.Swap(snap)
	gQuiet := &ScreenGenerator{Screen: EngineScreener(quiet), Addresses: addrs, Config: cfg}
	resQuiet, err := gQuiet.Run()
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	churned := screen.NewEngine(reg)
	churned.Swap(snap)
	cfg.Registry = reg
	gChurn := &ScreenGenerator{
		Screen:    EngineScreener(churned),
		Addresses: addrs,
		Config:    cfg,
		Swapper: func() {
			// Rebuild the same logical snapshot from scratch and swap it
			// in — different object, identical contents.
			_, rebuilt := screenUniverse()
			churned.Swap(rebuilt)
		},
	}
	resChurn, err := gChurn.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resChurn.SwapCount == 0 {
		t.Error("swapper never ran during the load")
	}
	checkVerdicts(t, gQuiet, resQuiet, 15906)
	checkVerdicts(t, gChurn, resChurn, 15906)

	rs := reg.Snapshot()
	if s := rs.Find("daas_loadgen_screen_batches_total"); s == nil || s.Counter != uint64(cfg.Batches) {
		t.Errorf("batch counter = %+v, want %d", s, cfg.Batches)
	}
	if s := rs.Find("daas_screen_snapshot_swaps_total"); s == nil || s.Counter < uint64(resChurn.SwapCount) {
		t.Errorf("engine swap counter = %+v, want >= %d", s, resChurn.SwapCount)
	}
}

// TestScreenBatchRPCByteIdentical is the wire counterpart: the
// schedule BenchmarkScreenBatchRPC times, answered by daas_screenBatch
// over HTTP, returns exactly the blacklist's truth.
func TestScreenBatchRPCByteIdentical(t *testing.T) {
	addrs, snap := screenUniverse()
	eng := screen.NewEngine(nil)
	eng.Swap(snap)
	srv := httptest.NewServer(&rpc.Server{Screen: eng})
	defer srv.Close()
	g := &ScreenGenerator{Screen: rpcScreener(rpc.NewClient(srv.URL)), Addresses: addrs, Config: screenRPCConfig}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkVerdicts(t, g, res, 3159)
}

// TestScreenRunValidation covers the config error paths.
func TestScreenRunValidation(t *testing.T) {
	addrs, _ := screenUniverse()
	if _, err := (&ScreenGenerator{Addresses: addrs, Config: ScreenConfig{Batches: 1, BatchSize: 1}}).Run(); err == nil {
		t.Error("nil backend accepted")
	}
	eng := screen.NewEngine(nil)
	if _, err := (&ScreenGenerator{Screen: EngineScreener(eng), Addresses: addrs}).Run(); err == nil {
		t.Error("zero batches accepted")
	}
}
