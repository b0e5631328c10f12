package radar_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// mergingWorld is TestConfig(7) with 400 operators per planted family,
// so the replay's families merge through both §7.1 edge kinds.
func mergingWorld(t *testing.T) *worldgen.World {
	t.Helper()
	cfg := worldgen.TestConfig(7)
	for i := range cfg.Families {
		cfg.Families[i].Operators = 400
	}
	world, err := worldgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// TestIncrementalRecompileMatchesScratch replays the merging world in
// random steps and, after every step, compares the incremental
// snapshot, family rollup, update feed and seed statistics with a
// rebuild from scratch. The feed's family_contract entries must be the
// ones a from-scratch rollup implies: every contract whose family name
// changed, in family-list order.
func TestIncrementalRecompileMatchesScratch(t *testing.T) {
	world := mergingWorld(t)
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	eng := screen.NewEngine(nil)
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	famOf := make(map[ethtypes.Address]string)
	var feed uint64
	steps, moved := 0, 0
	for more := true; more; {
		for n := 1 + rng.Intn(6); n > 0 && more; n-- {
			_, more = f.Advance()
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
		fams := radar.AssertMatchesScratch(t, r, eng, "step")

		var want []radar.Update
		for _, fam := range fams {
			for _, c := range fam.Contracts {
				if famOf[c] != fam.Name {
					if famOf[c] != "" {
						moved++
					}
					famOf[c] = fam.Name
					want = append(want, radar.Update{Kind: radar.KindFamilyContract, Address: c.Hex(), Family: fam.Name})
				}
			}
		}
		ups, cursor, _ := r.Updates(feed, 0)
		feed = cursor
		var got []radar.Update
		for _, u := range ups {
			if u.Kind == radar.KindFamilyContract {
				got = append(got, radar.Update{Kind: u.Kind, Address: u.Address, Family: u.Family})
			}
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("step %d: family_contract feed\n%s\nwant\n%s", steps, gj, wj)
		}
	}
	if moved == 0 {
		t.Fatalf("no contract changed family over %d steps; the feed check saw no merge", steps)
	}
}

// TestRadarFamiliesAreCopies mutates everything Families returns; the
// next rollup and snapshot must not see it.
func TestRadarFamiliesAreCopies(t *testing.T) {
	world := mergingWorld(t)
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	eng := screen.NewEngine(nil)
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
		Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := int(world.Chain.BlockCount() / 2)
	for i := 0; i < half; i++ {
		f.Advance()
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	fams := r.Families()
	if len(fams) == 0 || len(fams[0].Contracts) == 0 {
		t.Fatal("no family with contracts at mid-chain; the mutation would be vacuous")
	}
	for _, fam := range fams {
		fam.Name, fam.Tainted, fam.SplitTxs = "mutated", true, -1
		for i := range fam.Operators {
			fam.Operators[i] = ethtypes.Address{}
		}
		for i := range fam.Contracts {
			fam.Contracts[i] = ethtypes.Address{}
		}
		fam.Affiliates = fam.Affiliates[:0]
	}
	radar.AssertMatchesScratch(t, r, eng, "after mutating Families")
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	radar.AssertMatchesScratch(t, r, eng, "a step after mutating Families")
}
