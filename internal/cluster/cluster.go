// Package cluster implements the DaaS family clustering of the paper's
// §7.1: operator accounts are unioned when they transact directly or
// share an Etherscan-labeled phishing counterparty; profit-sharing
// contracts and affiliate accounts then inherit the family of their
// operators. Families are named from Etherscan operator labels, falling
// back to the dominant operator's address prefix.
//
// The edge rules live in Incremental, which accumulates evidence one
// transaction at a time. The radar daemon feeds it block by block; the
// batch Clusterer is a driver that feeds it every operator history at
// once. Both roll up through Incremental.Rollup, so the same member set
// and edge evidence yield the same family list.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
)

// Family is one recovered DaaS family.
type Family struct {
	// Name is the Etherscan-derived family name, or the dominant
	// operator's address prefix for unnamed clusters.
	Name string
	// Named reports whether the name came from a public label.
	Named      bool
	Operators  []ethtypes.Address
	Contracts  []ethtypes.Address
	Affiliates []ethtypes.Address
	// SplitTxs counts the profit-sharing transactions attributed to the
	// family.
	SplitTxs int
	// Tainted reports that some evidence touching this family was
	// quarantined by the integrity layer (a clustering edge skipped, or
	// an operator whose build-time scan was degraded): the family's
	// membership is a lower bound, not a complete picture.
	Tainted bool
}

// Clone returns a deep copy of f, which the caller may modify.
func (f *Family) Clone() *Family {
	c := *f
	c.Operators = slices.Clone(f.Operators)
	c.Contracts = slices.Clone(f.Contracts)
	c.Affiliates = slices.Clone(f.Affiliates)
	return &c
}

// Clusterer groups a dataset into families.
type Clusterer struct {
	Source core.ChainSource
	Labels *labels.Directory
	// DisableSharedAccountEdges drops the second §7.1 edge type; used
	// by the ablation bench.
	DisableSharedAccountEdges bool
	// DisableDirectEdges drops direct operator-to-operator transfers;
	// used by the ablation bench.
	DisableDirectEdges bool
	// Metrics, when set, records union-find merge counts per §7.1 edge
	// kind and the resulting family count (daas_cluster_* names).
	Metrics *obs.Registry
	// Degraded marks accounts whose build-time scans were incomplete
	// (from the pipeline's coverage ledger); families containing one are
	// flagged Tainted even if clustering itself saw no quarantined
	// record.
	Degraded map[ethtypes.Address]bool
}

// Cluster runs the two clustering steps and returns families sorted by
// descending victim activity (split count).
func (c *Clusterer) Cluster(ds *core.Dataset) ([]*Family, error) {
	inc, err := c.feed(ds)
	if err != nil {
		return nil, err
	}
	return inc.Families(ds, c.Degraded), nil
}

// feed registers every dataset operator with a fresh Incremental and
// walks their histories through it in address order. A quarantined
// transaction cannot witness an edge: the operator is marked tainted
// and the walk continues, so one rotten record degrades a family flag
// instead of aborting the clustering.
func (c *Clusterer) feed(ds *core.Dataset) (*Incremental, error) {
	if c.Source == nil {
		return nil, fmt.Errorf("cluster: Source is required")
	}
	inc := NewIncremental(c.Labels, c.Metrics)
	inc.noDirect, inc.noShared = c.DisableDirectEdges, c.DisableSharedAccountEdges
	ops := ds.SortedOperators()
	for _, rec := range ops {
		inc.AddOperator(rec.Address)
	}
	for _, rec := range ops {
		op := rec.Address
		hashes, err := c.Source.TransactionsOf(op)
		if err != nil {
			return nil, fmt.Errorf("cluster: history of %s: %w", op.Short(), err)
		}
		for _, h := range hashes {
			tx, err := c.Source.Transaction(h)
			if errors.Is(err, core.ErrQuarantined) {
				inc.ObserveQuarantined(op)
				continue
			}
			if err != nil {
				return nil, err
			}
			inc.ObserveTx(op, tx)
		}
	}
	return inc, nil
}

// nameFamily applies the §7.1 naming rule: an Etherscan family label on
// any operator, else the dominant operator's six-hex-character prefix.
// opSplits counts the splits each operator received.
func nameFamily(fam *Family, lbls *labels.Directory, opSplits map[ethtypes.Address]int) {
	sortAddrs(fam.Operators)
	if lbls != nil {
		for _, op := range fam.Operators {
			if name, ok := lbls.EtherscanName(op); ok && !strings.HasPrefix(name, "Fake_Phishing") {
				fam.Name = name
				fam.Named = true
				return
			}
		}
	}
	// Dominant operator: most splits received.
	var dom ethtypes.Address
	best := -1
	for _, op := range fam.Operators {
		if opSplits[op] > best {
			best, dom = opSplits[op], op
		}
	}
	fam.Name = dom.Short()
}

// unionFind is a plain disjoint-set over addresses.
type unionFind struct {
	parent map[ethtypes.Address]ethtypes.Address
	rank   map[ethtypes.Address]int
	// sets counts the disjoint sets.
	sets int
	// journal, when set, records the inverse of every parent and rank
	// write, path compression included.
	journal *core.Journal
}

func newUnionFind() *unionFind {
	return &unionFind{
		parent: make(map[ethtypes.Address]ethtypes.Address),
		rank:   make(map[ethtypes.Address]int),
	}
}

// add registers a as a singleton set; a no-op when already a member.
func (uf *unionFind) add(a ethtypes.Address) {
	if _, ok := uf.parent[a]; !ok {
		core.JournalKey(uf.journal, uf.parent, a)
		uf.parent[a] = a
		core.JournalValue(uf.journal, &uf.sets)
		uf.sets++
	}
}

// clone returns an independent copy sharing no state with the
// original; the copy journals nothing.
func (uf *unionFind) clone() *unionFind {
	return &unionFind{parent: maps.Clone(uf.parent), rank: maps.Clone(uf.rank), sets: uf.sets}
}

// find returns the set representative of a, compressing the walked
// path. Iterative two-pass (walk to the root, then re-parent the whole
// chain): a recursive implementation grows one stack frame per parent
// link, and merge chains at mainnet scale — or adversarial input — run
// long enough to overflow the goroutine stack.
func (uf *unionFind) find(a ethtypes.Address) (ethtypes.Address, bool) {
	root, ok := uf.parent[a]
	if !ok {
		return ethtypes.Address{}, false
	}
	for root != uf.parent[root] {
		root = uf.parent[root]
	}
	for a != root {
		next := uf.parent[a]
		if next != root {
			core.JournalKey(uf.journal, uf.parent, a)
			uf.parent[a] = root
		}
		a = next
	}
	return root, true
}

// union merges the sets of a and b, reporting whether two distinct sets
// were actually joined; unknown members are ignored unless both are
// known.
func (uf *unionFind) union(a, b ethtypes.Address) bool {
	ra, okA := uf.find(a)
	rb, okB := uf.find(b)
	if !okA || !okB || ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	core.JournalKey(uf.journal, uf.parent, rb)
	uf.parent[rb] = ra
	core.JournalValue(uf.journal, &uf.sets)
	uf.sets--
	if uf.rank[ra] == uf.rank[rb] {
		core.JournalKey(uf.journal, uf.rank, ra)
		uf.rank[ra]++
	}
	return true
}

func sortAddrs(addrs []ethtypes.Address) {
	sort.Slice(addrs, func(i, j int) bool { return addrLess(addrs[i], addrs[j]) })
}

func addrLess(a, b ethtypes.Address) bool { return addrCompare(a, b) < 0 }

func addrCompare(a, b ethtypes.Address) int { return bytes.Compare(a[:], b[:]) }
