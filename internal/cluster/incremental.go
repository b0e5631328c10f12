package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
)

// Incremental accumulates §7.1 clustering evidence one transaction at
// a time — the radar daemon's path. Direct operator-to-operator edges
// are unioned the moment both parties are members; shared-counterparty
// evidence is only recorded, and the unions it implies are applied at
// rollup time against the final dataset (mirroring the batch walk,
// which checks counterparties against the finished contract set).
// Families(ds) therefore returns exactly what the batch Clusterer
// would compute over the same dataset and edge evidence.
type Incremental struct {
	// Labels gates the shared-counterparty edge kind, as in Clusterer.
	Labels *labels.Directory

	uf      *unionFind
	tainted map[ethtypes.Address]bool
	// counterparties records, per Etherscan-phishing counterparty, the
	// member operators seen transacting with it.
	counterparties map[ethtypes.Address]map[ethtypes.Address]bool

	reg    *obs.Registry
	merges *obs.CounterVec
	// sharedMerges is the most shared-counterparty unions any rollup
	// has applied; only growth past it is counted as new merges.
	sharedMerges uint64
}

// NewIncremental returns an empty incremental clusterer reporting
// through reg (nil disables instrumentation).
func NewIncremental(lbls *labels.Directory, reg *obs.Registry) *Incremental {
	return &Incremental{
		Labels:         lbls,
		uf:             newUnionFind(nil),
		tainted:        make(map[ethtypes.Address]bool),
		counterparties: make(map[ethtypes.Address]map[ethtypes.Address]bool),
		reg:            reg,
		merges:         reg.CounterVec("daas_cluster_union_merges_total", "operator union-find merges per §7.1 edge kind", "edge"),
	}
}

// AddOperator registers a dataset operator as a singleton set. The
// caller is expected to follow up with ObserveTx over the operator's
// transaction history, so feed-time membership checks converge to what
// the batch walk sees.
func (inc *Incremental) AddOperator(op ethtypes.Address) { inc.uf.add(op) }

// Contains reports whether op has been added.
func (inc *Incremental) Contains(op ethtypes.Address) bool {
	_, ok := inc.uf.parent[op]
	return ok
}

// ObserveQuarantined marks op tainted: a record in its history was
// refused by the integrity layer, so an edge may have been missed.
func (inc *Incremental) ObserveQuarantined(op ethtypes.Address) { inc.tainted[op] = true }

// ObserveTx feeds one transaction of member operator op — the body of
// the batch Clusterer's history walk. A nil tx counts as quarantined.
func (inc *Incremental) ObserveTx(op ethtypes.Address, tx *chain.Transaction) {
	if tx == nil {
		inc.tainted[op] = true
		return
	}
	if tx.To == nil {
		return
	}
	from, to := tx.From, *tx.To
	// Direct transfer between two member operators.
	if inc.Contains(from) && inc.Contains(to) {
		if inc.uf.union(from, to) {
			inc.merges.With("direct").Inc()
		}
		return
	}
	// Shared Etherscan-labeled phishing counterparty. Whether the
	// counterparty is a dataset contract is a property of the final
	// dataset, so that exclusion is applied at rollup, not here.
	if inc.Labels == nil {
		return
	}
	counterparty, ok := counterpartyOf(op, from, to)
	if !ok {
		return
	}
	if !isEtherscanPhishing(inc.Labels, counterparty) {
		return
	}
	set := inc.counterparties[counterparty]
	if set == nil {
		set = make(map[ethtypes.Address]bool)
		inc.counterparties[counterparty] = set
	}
	set[op] = true
}

// Families rolls the accumulated evidence up into the family list for
// ds. The union-find is cloned, the deferred shared-counterparty
// unions are applied (skipping counterparties that ended up in the
// dataset's contract set, exactly as the batch walk does), degraded
// accounts are merged into the taint set, and the shared materialize
// step produces the families. The clustering state is not mutated, so
// rollups can run per update batch; each rollup re-applies the same
// deferred unions, so the merge counter only takes those past the
// previous rollup's count.
func (inc *Incremental) Families(ds *core.Dataset, degraded map[ethtypes.Address]bool) []*Family {
	uf := inc.uf.clone()
	var shared uint64
	cps := make([]ethtypes.Address, 0, len(inc.counterparties))
	for cp := range inc.counterparties {
		cps = append(cps, cp)
	}
	sortAddrs(cps)
	for _, cp := range cps {
		if _, isContract := ds.Contracts[cp]; isContract {
			continue
		}
		members := make([]ethtypes.Address, 0, len(inc.counterparties[cp]))
		for op := range inc.counterparties[cp] {
			members = append(members, op)
		}
		sortAddrs(members)
		for _, op := range members[1:] {
			if uf.union(members[0], op) {
				shared++
			}
		}
	}
	if shared > inc.sharedMerges {
		inc.merges.With("shared_counterparty").Add(shared - inc.sharedMerges)
		inc.sharedMerges = shared
	}
	tainted := make(map[ethtypes.Address]bool, len(inc.tainted)+len(degraded))
	for a := range inc.tainted {
		tainted[a] = true
	}
	for a := range degraded {
		tainted[a] = true
	}
	return materialize(ds, uf, tainted, inc.Labels, inc.reg)
}

// incrementalJSON is the deterministic wire form of an Incremental:
// sorted members, non-singleton groups (sorted by first member; only
// the partition matters, rollup canonicalizes representatives),
// counterparty evidence, and the taint set.
type incrementalJSON struct {
	Members        []string           `json:"members"`
	Groups         [][]string         `json:"groups,omitempty"`
	Counterparties []counterpartyJSON `json:"counterparties,omitempty"`
	Tainted        []string           `json:"tainted,omitempty"`
}

type counterpartyJSON struct {
	Counterparty string   `json:"counterparty"`
	Operators    []string `json:"operators"`
}

// Snapshot serializes the clusterer state; identical states produce
// identical bytes.
func (inc *Incremental) Snapshot() ([]byte, error) {
	out := incrementalJSON{}
	members := make([]ethtypes.Address, 0, len(inc.uf.parent))
	for a := range inc.uf.parent {
		members = append(members, a)
	}
	sortAddrs(members)
	groups := make(map[ethtypes.Address][]string)
	for _, a := range members {
		out.Members = append(out.Members, a.Hex())
		root, _ := inc.uf.find(a)
		groups[root] = append(groups[root], a.Hex())
	}
	roots := make([]ethtypes.Address, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sortAddrs(roots)
	for _, root := range roots {
		if g := groups[root]; len(g) > 1 {
			out.Groups = append(out.Groups, g) // members were walked sorted
		}
	}
	// Group order must not depend on union-find representatives: sort by
	// first (minimum) member.
	sortGroups(out.Groups)
	cps := make([]ethtypes.Address, 0, len(inc.counterparties))
	for cp := range inc.counterparties {
		cps = append(cps, cp)
	}
	sortAddrs(cps)
	for _, cp := range cps {
		ops := make([]ethtypes.Address, 0, len(inc.counterparties[cp]))
		for op := range inc.counterparties[cp] {
			ops = append(ops, op)
		}
		sortAddrs(ops)
		row := counterpartyJSON{Counterparty: cp.Hex()}
		for _, op := range ops {
			row.Operators = append(row.Operators, op.Hex())
		}
		out.Counterparties = append(out.Counterparties, row)
	}
	taintList := make([]ethtypes.Address, 0, len(inc.tainted))
	for a := range inc.tainted {
		taintList = append(taintList, a)
	}
	sortAddrs(taintList)
	for _, a := range taintList {
		out.Tainted = append(out.Tainted, a.Hex())
	}
	return json.Marshal(out)
}

func sortGroups(groups [][]string) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j][0] < groups[j-1][0]; j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}

// Restore replaces the clusterer state with a Snapshot's contents.
func (inc *Incremental) Restore(blob []byte) error {
	var in incrementalJSON
	if err := json.Unmarshal(blob, &in); err != nil {
		return fmt.Errorf("cluster: decoding incremental snapshot: %w", err)
	}
	inc.uf = newUnionFind(nil)
	inc.tainted = make(map[ethtypes.Address]bool)
	inc.counterparties = make(map[ethtypes.Address]map[ethtypes.Address]bool)
	for _, s := range in.Members {
		a, err := ethtypes.HexToAddress(s)
		if err != nil {
			return fmt.Errorf("cluster: incremental member: %w", err)
		}
		inc.uf.add(a)
	}
	for _, g := range in.Groups {
		if len(g) == 0 {
			continue
		}
		first, err := ethtypes.HexToAddress(g[0])
		if err != nil {
			return fmt.Errorf("cluster: incremental group member: %w", err)
		}
		for _, s := range g[1:] {
			a, err := ethtypes.HexToAddress(s)
			if err != nil {
				return fmt.Errorf("cluster: incremental group member: %w", err)
			}
			inc.uf.union(first, a)
		}
	}
	for _, row := range in.Counterparties {
		cp, err := ethtypes.HexToAddress(row.Counterparty)
		if err != nil {
			return fmt.Errorf("cluster: incremental counterparty: %w", err)
		}
		set := make(map[ethtypes.Address]bool, len(row.Operators))
		for _, s := range row.Operators {
			a, err := ethtypes.HexToAddress(s)
			if err != nil {
				return fmt.Errorf("cluster: incremental counterparty operator: %w", err)
			}
			set[a] = true
		}
		inc.counterparties[cp] = set
	}
	for _, s := range in.Tainted {
		a, err := ethtypes.HexToAddress(s)
		if err != nil {
			return fmt.Errorf("cluster: incremental tainted account: %w", err)
		}
		inc.tainted[a] = true
	}
	return nil
}
