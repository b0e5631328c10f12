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

// Incremental holds the §7.1 edge rules and accumulates their
// evidence one transaction at a time. Direct operator-to-operator
// edges are unioned the moment both parties are members;
// shared-counterparty evidence is only recorded, and the unions it
// implies are applied at rollup time against the final dataset, whose
// contract set decides which counterparties count. The radar daemon
// feeds it block by block; the batch Clusterer feeds it every operator
// history at once. Either way Families depends only on the member set
// and the evidence, not on the order it arrived in.
//
// The materialized families are kept between rollups over the same
// dataset (see Rollup), so a head follower's rollup costs what its
// step changed.
type Incremental struct {
	// Labels gates the shared-counterparty edge kind and names
	// families.
	Labels *labels.Directory

	// noDirect and noShared carry the Clusterer's ablation switches.
	noDirect, noShared bool

	uf      *unionFind
	journal *core.Journal
	tainted map[ethtypes.Address]bool
	// counterparties records, per Etherscan-phishing counterparty, the
	// member operators seen transacting with it.
	counterparties map[ethtypes.Address]map[ethtypes.Address]bool

	reg    *obs.Registry
	merges *obs.CounterVec
	// sharedMerges is the most shared-counterparty unions any rollup
	// has applied; only growth past it is counted as new merges.
	sharedMerges uint64

	// roll is the last rollup, updated by every later mutation; nil
	// makes the next rollup start from empty.
	roll *rollup
}

// NewIncremental returns an empty incremental clusterer reporting
// through reg (nil disables instrumentation).
func NewIncremental(lbls *labels.Directory, reg *obs.Registry) *Incremental {
	return &Incremental{
		Labels:         lbls,
		uf:             newUnionFind(),
		tainted:        make(map[ethtypes.Address]bool),
		counterparties: make(map[ethtypes.Address]map[ethtypes.Address]bool),
		reg:            reg,
		merges:         reg.CounterVec("daas_cluster_union_merges_total", "operator union-find merges per §7.1 edge kind", "edge"),
	}
}

// SetJournal makes every later mutation record its inverse in j, so a
// head follower can undo the blocks a reorg orphaned; nil stops
// journaling. Restore is never journaled. The kept rollup is not
// journaled: call Invalidate after reverting j.
func (inc *Incremental) SetJournal(j *core.Journal) {
	inc.journal = j
	inc.uf.journal = j
}

// AddOperator registers a dataset operator as a singleton set. The
// caller is expected to follow up with ObserveTx over the operator's
// transaction history, so a direct edge observed before both parties
// were members is seen again.
func (inc *Incremental) AddOperator(op ethtypes.Address) {
	if inc.Contains(op) {
		return
	}
	inc.uf.add(op)
	if inc.roll != nil {
		inc.roll.addMember(op)
	}
}

// Invalidate drops the kept rollup, so the next one starts from empty.
// A head follower calls it after undoing journaled mutations.
func (inc *Incremental) Invalidate() { inc.roll = nil }

// ObserveSplits tallies the family votes of splits appended to the
// dataset since the last rollup.
func (inc *Incremental) ObserveSplits(splits []core.Split) {
	r := inc.roll
	if r == nil {
		return // the next rollup tallies the dataset from empty
	}
	for _, sp := range splits {
		if r.applied[sp.Contract] {
			// A counterparty whose unions were applied became a dataset
			// contract: those unions must go, so start over.
			inc.roll = nil
			return
		}
		r.observe(sp)
	}
}

// Contains reports whether op has been added.
func (inc *Incremental) Contains(op ethtypes.Address) bool {
	_, ok := inc.uf.parent[op]
	return ok
}

// ObserveQuarantined marks op tainted: a record in its history was
// refused by the integrity layer, so an edge may have been missed.
func (inc *Incremental) ObserveQuarantined(op ethtypes.Address) { inc.taint(op) }

func (inc *Incremental) taint(op ethtypes.Address) {
	if !inc.tainted[op] {
		core.JournalKey(inc.journal, inc.tainted, op)
		inc.tainted[op] = true
		if inc.roll != nil {
			inc.roll.dirtyOps[op] = true
		}
	}
}

// ObserveTx feeds one transaction of member operator op. A nil tx
// counts as quarantined.
func (inc *Incremental) ObserveTx(op ethtypes.Address, tx *chain.Transaction) {
	if tx == nil {
		inc.taint(op)
		return
	}
	if tx.To == nil {
		return
	}
	from, to := tx.From, *tx.To
	// Direct transfer between two member operators. With direct edges
	// ablated the transaction is still a shared-counterparty candidate.
	if !inc.noDirect && inc.Contains(from) && inc.Contains(to) {
		if inc.uf.union(from, to) {
			inc.merges.With("direct").Inc()
			if inc.roll != nil {
				inc.roll.union(from, to)
			}
		}
		return
	}
	// Shared Etherscan-labeled phishing counterparty (plain accounts
	// only — dataset contracts belong to one operator by construction
	// and would not witness collaboration). Whether the counterparty is
	// a dataset contract is a property of the final dataset, so that
	// exclusion is applied at rollup, not here.
	if inc.noShared || inc.Labels == nil {
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
		core.JournalKey(inc.journal, inc.counterparties, counterparty)
		inc.counterparties[counterparty] = set
	}
	if !set[op] {
		core.JournalKey(inc.journal, set, op)
		set[op] = true
		if inc.roll != nil {
			inc.roll.newEvidence[counterparty] = true
		}
	}
}

// counterpartyOf returns the other party of a transaction involving op.
func counterpartyOf(op, from, to ethtypes.Address) (ethtypes.Address, bool) {
	switch {
	case from == op:
		return to, true
	case to == op:
		return from, true
	default:
		return ethtypes.Address{}, false
	}
}

func isEtherscanPhishing(dir *labels.Directory, a ethtypes.Address) bool {
	for _, l := range dir.Of(a) {
		if l.Source == labels.SourceEtherscan && l.Category == labels.CategoryPhishing {
			return true
		}
	}
	return false
}

// Families is Rollup without the freshly materialized families.
func (inc *Incremental) Families(ds *core.Dataset, degraded map[ethtypes.Address]bool) []*Family {
	fams, _ := inc.Rollup(ds, degraded)
	return fams
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
	inc.uf = newUnionFind()
	inc.tainted = make(map[ethtypes.Address]bool)
	inc.counterparties = make(map[ethtypes.Address]map[ethtypes.Address]bool)
	inc.roll = nil
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
	inc.uf.journal = inc.journal
	return nil
}
