package cluster_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// feed replays every dataset operator's history through a fresh
// incremental clusterer, the batch Clusterer's walk, and returns it
// before rollup.
func feed(t *testing.T, w *worldgen.World, ds *core.Dataset, reg *obs.Registry) *cluster.Incremental {
	t.Helper()
	inc, err := cluster.Feed(&cluster.Clusterer{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels, Metrics: reg}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// TestIncrementalSnapshotRoundTrip checks that Snapshot/Restore is
// lossless and deterministic: the restored clusterer yields the same
// families, and re-snapshotting yields identical bytes. The merging
// world puts union groups and counterparty evidence in the snapshot.
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	w, ds := mergingWorld()
	inc := feed(t, w, ds, nil)
	blob, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"groups"`)) || !bytes.Contains(blob, []byte(`"counterparties"`)) {
		t.Fatalf("snapshot carries no groups or counterparty evidence; the round trip would be vacuous:\n%s", blob)
	}

	restored := cluster.NewIncremental(w.Labels, nil)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("snapshot not stable across restore:\n%s\nvs\n%s", blob, blob2)
	}
	if got, want := restored.Families(ds, nil), inc.Families(ds, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored families diverge:\nrestored: %+v\noriginal: %+v", summarize(got), summarize(want))
	}
}

// TestIncrementalDegradedTaint checks the Degraded pass-through: a
// degraded operator taints its family even when clustering itself saw
// no quarantined record.
func TestIncrementalDegradedTaint(t *testing.T) {
	inc := feed(t, world, dataset, nil)
	clean := inc.Families(dataset, nil)
	for _, fam := range clean {
		if fam.Tainted {
			t.Fatalf("clean feed produced tainted family %q", fam.Name)
		}
	}
	degraded := map[ethtypes.Address]bool{clean[0].Operators[0]: true}
	fams := inc.Families(dataset, degraded)
	var found bool
	for _, fam := range fams {
		for _, op := range fam.Operators {
			if degraded[op] && fam.Tainted {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("degraded operator did not taint its family")
	}
}

func summarize(fams []*cluster.Family) []string {
	var out []string
	for _, f := range fams {
		out = append(out, f.Name)
	}
	return out
}

// TestIncrementalFamiliesCountsMergesOnce: every rollup re-applies the
// deferred shared-counterparty unions on a clone, but a union is
// counted in daas_cluster_union_merges_total only the first time. Each
// merge joins two sets, so the counted merges of both edge kinds must
// add up to operators minus families.
func TestIncrementalFamiliesCountsMergesOnce(t *testing.T) {
	w, ds := mergingWorld()
	reg := obs.NewRegistry()
	inc := feed(t, w, ds, reg)
	merges := reg.CounterVec("daas_cluster_union_merges_total", "", "edge")
	for i := 1; i <= 2; i++ {
		fams := inc.Families(ds, nil)
		direct, shared := merges.With("direct").Value(), merges.With("shared_counterparty").Value()
		if direct == 0 || shared == 0 {
			t.Fatalf("rollup %d: %d direct and %d shared-counterparty merges; the check would be vacuous", i, direct, shared)
		}
		if want := uint64(len(ds.Operators) - len(fams)); direct+shared != want {
			t.Fatalf("rollup %d: counted %d direct + %d shared-counterparty merges, want %d in all (%d operators, %d families)",
				i, direct, shared, want, len(ds.Operators), len(fams))
		}
	}
}

// TestRollupRestartsWhenCounterpartyBecomesContract: two operators
// share an Etherscan-phishing counterparty, so a rollup merges them;
// then the counterparty joins the dataset as a contract, which takes
// that union back. The kept rollup must start over and match a rollup
// from scratch, two families again.
func TestRollupRestartsWhenCounterpartyBecomesContract(t *testing.T) {
	addr := func(b byte) ethtypes.Address {
		var a ethtypes.Address
		a[19] = b
		return a
	}
	op1, op2, cp, con, aff := addr(1), addr(2), addr(3), addr(4), addr(5)
	lbls := labels.New()
	lbls.Add(labels.Label{Address: cp, Source: labels.SourceEtherscan, Category: labels.CategoryPhishing, Name: "Fake_Phishing1"})
	ds := core.NewDataset()
	inc := cluster.NewIncremental(lbls, nil)
	fold := func(h byte, contract, op ethtypes.Address) {
		sp := core.Split{TxHash: ethtypes.Hash{h}, Contract: contract, Operator: op, Affiliate: aff}
		if ds.Contracts[contract] == nil {
			ds.Contracts[contract] = &core.ContractRecord{Address: contract}
		}
		ds.Operators[op] = &core.AccountRecord{Address: op}
		ds.Affiliates[aff] = &core.AccountRecord{Address: aff}
		ds.Splits[sp.TxHash] = append(ds.Splits[sp.TxHash], sp)
		inc.AddOperator(op)
		inc.ObserveSplits([]core.Split{sp})
	}
	fold(1, con, op1)
	fold(2, con, op2)
	if fams := inc.Families(ds, nil); len(fams) != 2 {
		t.Fatalf("%d families before any edge, want 2", len(fams))
	}
	inc.ObserveTx(op1, &chain.Transaction{From: op1, To: &cp})
	inc.ObserveTx(op2, &chain.Transaction{From: op2, To: &cp})
	if fams := inc.Families(ds, nil); len(fams) != 1 {
		t.Fatalf("%d families after the shared counterparty, want 1", len(fams))
	}
	fold(3, cp, op1)
	got := inc.Families(ds, nil)
	blob, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	scratch := cluster.NewIncremental(lbls, nil)
	if err := scratch.Restore(blob); err != nil {
		t.Fatal(err)
	}
	want := scratch.Families(ds, nil)
	if len(want) != 2 {
		t.Fatalf("a rollup from scratch has %d families, want 2", len(want))
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("kept rollup after the counterparty became a contract:\n%s\nfrom scratch:\n%s", gj, wj)
	}
}
