package radar

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/screen"
)

// AssertMatchesScratch lets the package's external tests check the
// kept caches too.
var AssertMatchesScratch = assertMatchesScratch

// fromScratch rebuilds, from the radar's state alone, what its kept
// caches hold: the family rollup of a clusterer restored from the
// radar's (so it starts from empty), the snapshot Compile makes of
// that rollup, and the seed statistics counted from discovery tags.
func fromScratch(r *Radar) ([]*cluster.Family, *screen.Snapshot, core.Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := r.inc.Snapshot()
	if err != nil {
		return nil, nil, core.Stats{}, err
	}
	inc := cluster.NewIncremental(r.cfg.Labels, nil)
	if err := inc.Restore(blob); err != nil {
		return nil, nil, core.Stats{}, err
	}
	fams := inc.Families(r.adm.DS, nil)
	return fams, screen.Compile(r.adm.DS, fams, r.cfg.Domains), seedStats(r.adm.DS), nil
}

// assertMatchesScratch checks the radar's kept caches against a
// rebuild from its state alone: the engine's snapshot bytes, the
// Families JSON and the seed statistics. It returns the from-scratch
// family list.
func assertMatchesScratch(t *testing.T, r *Radar, eng *screen.Engine, when string) []*cluster.Family {
	t.Helper()
	fams, snap, seeds, err := fromScratch(r)
	if err != nil {
		t.Fatal(err)
	}
	if cur := eng.Snapshot(); cur == nil {
		// Nothing admitted yet, so nothing compiled.
		if snap.Len() != 0 {
			t.Fatalf("%s: no snapshot swapped in, but a compile from scratch lists %d accounts", when, snap.Len())
		}
	} else {
		got, err := cur.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot bytes differ from a compile from scratch (%d vs %d bytes)", when, len(got), len(want))
		}
	}
	gotFams, err := json.Marshal(r.Families())
	if err != nil {
		t.Fatal(err)
	}
	wantFams, err := json.Marshal(fams)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatalf("%s: families differ from a rollup from scratch:\n%s\nvs\n%s", when, gotFams, wantFams)
	}
	if st := r.Status(); st.SeedStats != seeds {
		t.Fatalf("%s: seed statistics %+v, counted from scratch %+v", when, st.SeedStats, seeds)
	}
	return fams
}

// seedStats counts the seed-tagged records of ds and the transactions
// split through seed contracts.
func seedStats(ds *core.Dataset) core.Stats {
	var ss core.Stats
	for _, c := range ds.Contracts {
		if c.Found == core.DiscoverySeed {
			ss.Contracts++
		}
	}
	for _, a := range ds.Operators {
		if a.Found == core.DiscoverySeed {
			ss.Operators++
		}
	}
	for _, a := range ds.Affiliates {
		if a.Found == core.DiscoverySeed {
			ss.Affiliates++
		}
	}
	for _, sps := range ds.Splits {
		if c := ds.Contracts[sps[0].Contract]; c != nil && c.Found == core.DiscoverySeed {
			ss.ProfitTxs++
		}
	}
	return ss
}
