package loadgen

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/worldgen"
)

// TestRadarStreamDeterministic: the streaming run's dataset shape is a
// pure function of the world and the arrival batching — two runs (with
// the screening sidecar racing the swaps both times) land on identical
// contracts, profit-txs, families, and swap counts; those equal the
// batch pipeline's and clusterer's over the finished chain, and the
// counts BenchmarkRadarStream's world yields are pinned.
func TestRadarStreamDeterministic(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	shape := func(r *RadarRunResult) [7]uint64 {
		return [7]uint64{
			uint64(r.Blocks), uint64(r.Contracts), uint64(r.Operators),
			uint64(r.Affiliates), uint64(r.ProfitTxs), uint64(r.Families), r.Swaps,
		}
	}
	a, err := RunRadar(w, RadarConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRadar(w, RadarConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if shape(a) != shape(b) {
		t.Errorf("stream shape diverged between runs:\n  %v\n  %v", shape(a), shape(b))
	}

	ds, err := (&core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}).Build()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := (&cluster.Clusterer{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}).Cluster(ds)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	got := [5]int{a.Contracts, a.Operators, a.Affiliates, a.ProfitTxs, a.Families}
	batch := [5]int{st.Contracts, st.Operators, st.Affiliates, st.ProfitTxs, len(fams)}
	if got != batch {
		t.Errorf("stream (contracts, operators, affiliates, profit-txs, families) = %v, batch build = %v", got, batch)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"contracts", uint64(a.Contracts), 23},
		{"profit-sharing transactions", uint64(a.ProfitTxs), 860},
		{"families", uint64(a.Families), 9},
		{"snapshot swaps", a.Swaps, 610},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if a.ScreenBatches == 0 {
		t.Error("screening sidecar issued no batches")
	}
}
