package cluster_test

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/worldgen"
)

var world = func() *worldgen.World {
	w, err := worldgen.Generate(worldgen.TestConfig(77))
	if err != nil {
		panic(err)
	}
	return w
}()

var dataset = func() *core.Dataset {
	p := &core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	ds, err := p.Build()
	if err != nil {
		panic(err)
	}
	return ds
}()

// mergingWorld is a world with more operators than families
// (TestConfig(7), 400 operators per planted family), so §7.1 must merge
// operators through both edge kinds to recover the planted families.
// Built on first use and shared.
var mergingWorld = sync.OnceValues(func() (*worldgen.World, *core.Dataset) {
	cfg := worldgen.TestConfig(7)
	for i := range cfg.Families {
		cfg.Families[i].Operators = 400
	}
	w, err := worldgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	ds, err := (&core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}).Build()
	if err != nil {
		panic(err)
	}
	return w, ds
})

func runCluster(t *testing.T, c cluster.Clusterer) []*cluster.Family {
	t.Helper()
	return clusterWorld(t, world, dataset, c)
}

// clusterWorld runs c over ds, reading w's chain and labels.
func clusterWorld(t *testing.T, w *worldgen.World, ds *core.Dataset, c cluster.Clusterer) []*cluster.Family {
	t.Helper()
	c.Source = core.LocalSource{Chain: w.Chain}
	c.Labels = w.Labels
	fams, err := c.Cluster(ds)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// TestClusterMatchesTruth is the §7.1 reference: on worlds where the
// paper's rules recover worldgen's ground truth exactly, each planted
// family comes back as exactly one family, and every dataset operator,
// contract and affiliate lands in its planted family.
func TestClusterMatchesTruth(t *testing.T) {
	mw, mds := mergingWorld()
	for _, tc := range []struct {
		name string
		w    *worldgen.World
		ds   *core.Dataset
	}{
		{"singleton operators", world, dataset},
		{"merging operators", mw, mds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth := tc.w.Truth
			fams := clusterWorld(t, tc.w, tc.ds, cluster.Clusterer{})
			if len(fams) != len(tc.w.Plan.Families) {
				t.Errorf("recovered %d families, want the %d planted", len(fams), len(tc.w.Plan.Families))
			}
			names := make(map[int]string)
			placed := make(map[ethtypes.Address]bool)
			for _, fam := range fams {
				want, ok := truth.OperatorFamily[fam.Operators[0]]
				if !ok {
					t.Errorf("family %q: operator %s was not planted", fam.Name, fam.Operators[0].Short())
					continue
				}
				if other, dup := names[want]; dup {
					t.Errorf("planted family %d split into %q and %q", want, other, fam.Name)
				}
				names[want] = fam.Name
				for _, m := range []struct {
					kind    string
					members []ethtypes.Address
					truth   map[ethtypes.Address]int
				}{
					{"operator", fam.Operators, truth.OperatorFamily},
					{"contract", fam.Contracts, truth.ContractFamily},
					{"affiliate", fam.Affiliates, truth.AffiliateFamily},
				} {
					for _, a := range m.members {
						if got, ok := m.truth[a]; !ok || got != want {
							t.Errorf("%s %s in family %q (planted %d), want planted %d", m.kind, a.Short(), fam.Name, got, want)
						}
						placed[a] = true
					}
				}
			}
			for _, accts := range []map[ethtypes.Address]*core.AccountRecord{tc.ds.Operators, tc.ds.Affiliates} {
				for a := range accts {
					if !placed[a] {
						t.Errorf("dataset account %s in no family", a.Short())
					}
				}
			}
			for a := range tc.ds.Contracts {
				if !placed[a] {
					t.Errorf("dataset contract %s in no family", a.Short())
				}
			}
		})
	}
}

func TestClusterRecoversPlantedFamilies(t *testing.T) {
	fams := runCluster(t, cluster.Clusterer{})
	if len(fams) != len(world.Plan.Families) {
		t.Fatalf("recovered %d families, want %d", len(fams), len(world.Plan.Families))
	}

	// Every recovered family's operators must come from exactly one
	// planted family (purity), and all planted operators of that family
	// present in the dataset must land together (completeness).
	for _, fam := range fams {
		truthFam := -1
		for _, op := range fam.Operators {
			tf, ok := world.Truth.OperatorFamily[op]
			if !ok {
				t.Errorf("clustered unknown operator %s", op.Short())
				continue
			}
			if truthFam == -1 {
				truthFam = tf
			} else if tf != truthFam {
				t.Errorf("family %q mixes planted families %d and %d", fam.Name, truthFam, tf)
			}
		}
	}
}

func TestClusterContractAndAffiliatePurity(t *testing.T) {
	fams := runCluster(t, cluster.Clusterer{})
	for _, fam := range fams {
		if len(fam.Operators) == 0 {
			t.Fatal("family without operators")
		}
		want := world.Truth.OperatorFamily[fam.Operators[0]]
		for _, con := range fam.Contracts {
			if got := world.Truth.ContractFamily[con]; got != want {
				t.Errorf("contract %s assigned to family %d, want %d", con.Short(), got, want)
			}
		}
		for _, aff := range fam.Affiliates {
			if got := world.Truth.AffiliateFamily[aff]; got != want {
				t.Errorf("affiliate %s assigned to family %d, want %d", aff.Short(), got, want)
			}
		}
	}
}

func TestClusterNaming(t *testing.T) {
	fams := runCluster(t, cluster.Clusterer{})
	names := make(map[string]bool)
	for _, fam := range fams {
		names[fam.Name] = true
	}
	for _, fp := range world.Plan.Families {
		if fp.Params.EtherscanName != "" && !names[fp.Params.EtherscanName] {
			t.Errorf("named family %q not recovered by name", fp.Params.EtherscanName)
		}
	}
	// The unnamed family must be named by operator prefix 0x0000b6.
	if !names["0x0000b6"] {
		t.Errorf("unnamed family not prefix-named; names = %v", keys(names))
	}
}

func TestClusterDominantFamiliesLeadByActivity(t *testing.T) {
	fams := runCluster(t, cluster.Clusterer{})
	if len(fams) < 3 {
		t.Fatal("too few families")
	}
	lead := map[string]bool{fams[0].Name: true, fams[1].Name: true, fams[2].Name: true}
	for _, want := range []string{"Angel Drainer", "Inferno Drainer"} {
		if !lead[want] {
			t.Errorf("%s not among top families: %v", want, keys(lead))
		}
	}
}

// TestClusterEdgeAblation pins the family counts of the merging world
// with each §7.1 edge kind removed: both kinds are load-bearing, and
// with neither every operator stays a singleton.
func TestClusterEdgeAblation(t *testing.T) {
	w, ds := mergingWorld()
	for _, tc := range []struct {
		name string
		c    cluster.Clusterer
		want int
	}{
		{"both edges", cluster.Clusterer{}, 9},
		{"no shared edges", cluster.Clusterer{DisableSharedAccountEdges: true}, 11},
		{"no direct edges", cluster.Clusterer{DisableDirectEdges: true}, 13},
		{"no edges", cluster.Clusterer{DisableSharedAccountEdges: true, DisableDirectEdges: true}, len(ds.Operators)},
	} {
		if got := len(clusterWorld(t, w, ds, tc.c)); got != tc.want {
			t.Errorf("%s: %d families, want %d", tc.name, got, tc.want)
		}
	}
	if len(ds.Operators) != 15 {
		t.Errorf("merging world has %d operators, want 15", len(ds.Operators))
	}
}

func TestClusterEmptyDataset(t *testing.T) {
	c := cluster.Clusterer{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	fams, err := c.Cluster(core.NewDataset())
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 0 {
		t.Errorf("empty dataset produced %d families", len(fams))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
