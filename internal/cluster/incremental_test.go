package cluster_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// feedIncremental replays every dataset operator's history through an
// incremental clusterer, the way the radar daemon feeds it.
func feedIncremental(t *testing.T, inc *cluster.Incremental) {
	t.Helper()
	src := core.LocalSource{Chain: world.Chain}
	for _, rec := range dataset.SortedOperators() {
		inc.AddOperator(rec.Address)
	}
	for _, rec := range dataset.SortedOperators() {
		hashes, err := src.TransactionsOf(rec.Address)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hashes {
			tx, err := src.Transaction(h)
			if err != nil {
				t.Fatal(err)
			}
			inc.ObserveTx(rec.Address, tx)
		}
	}
}

// TestIncrementalMatchesBatch is the §7.1 equivalence contract: the
// incremental feed over the same histories must produce exactly the
// batch Clusterer's family list.
func TestIncrementalMatchesBatch(t *testing.T) {
	batch := runCluster(t, cluster.Clusterer{})

	inc := cluster.NewIncremental(world.Labels, nil)
	feedIncremental(t, inc)
	fams := inc.Families(dataset, nil)

	if !reflect.DeepEqual(fams, batch) {
		t.Fatalf("incremental families diverge from batch:\nincremental: %+v\nbatch: %+v", summarize(fams), summarize(batch))
	}
}

// TestIncrementalSnapshotRoundTrip checks that Snapshot/Restore is
// lossless and deterministic: the restored clusterer yields the same
// families, and re-snapshotting yields identical bytes.
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	inc := cluster.NewIncremental(world.Labels, nil)
	feedIncremental(t, inc)
	blob, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored := cluster.NewIncremental(world.Labels, nil)
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
	if got, want := restored.Families(dataset, nil), inc.Families(dataset, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored families diverge:\nrestored: %+v\noriginal: %+v", summarize(got), summarize(want))
	}
}

// TestIncrementalDegradedTaint mirrors the batch Degraded pass-through.
func TestIncrementalDegradedTaint(t *testing.T) {
	inc := cluster.NewIncremental(world.Labels, nil)
	feedIncremental(t, inc)
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
// counted in daas_cluster_union_merges_total only the first time.
func TestIncrementalFamiliesCountsMergesOnce(t *testing.T) {
	// More operators than families forces both §7.1 edge kinds to merge.
	cfg := worldgen.TestConfig(77)
	for i := range cfg.Families {
		cfg.Families[i].Operators = 400
	}
	w, err := worldgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := core.LocalSource{Chain: w.Chain}
	ds, err := (&core.Pipeline{Source: src, Labels: w.Labels}).Build()
	if err != nil {
		t.Fatal(err)
	}
	batchReg := obs.NewRegistry()
	if _, err := (&cluster.Clusterer{Source: src, Labels: w.Labels, Metrics: batchReg}).Cluster(ds); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	inc := cluster.NewIncremental(w.Labels, reg)
	for _, rec := range ds.SortedOperators() {
		inc.AddOperator(rec.Address)
	}
	for _, rec := range ds.SortedOperators() {
		hashes, err := src.TransactionsOf(rec.Address)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hashes {
			tx, err := src.Transaction(h)
			if err != nil {
				t.Fatal(err)
			}
			inc.ObserveTx(rec.Address, tx)
		}
	}
	shared := func(r *obs.Registry) uint64 {
		return r.CounterVec("daas_cluster_union_merges_total", "", "edge").With("shared_counterparty").Value()
	}
	want := shared(batchReg)
	if want == 0 {
		t.Fatal("world has no shared-counterparty merge; the check would be vacuous")
	}
	inc.Families(ds, nil)
	if got := shared(reg); got != want {
		t.Fatalf("first rollup counted %d shared-counterparty merges, batch clusterer %d", got, want)
	}
	inc.Families(ds, nil)
	if got := shared(reg); got != want {
		t.Fatalf("second rollup moved the shared-counterparty merge counter to %d, want %d", got, want)
	}
}
