package core

import (
	"sort"
	"time"

	"repro/internal/ethtypes"
)

// Discovery records how an account entered the dataset.
type Discovery string

// Discovery modes.
const (
	// DiscoverySeed marks accounts found from public labels (Step 1–3).
	DiscoverySeed Discovery = "seed"
	// DiscoveryExpansion marks accounts found by snowball expansion
	// (Step 4).
	DiscoveryExpansion Discovery = "expansion"
)

// ContractRecord is one profit-sharing contract in the dataset.
type ContractRecord struct {
	Address   ethtypes.Address
	Found     Discovery
	Sources   []string // label sources that reported it (seed only)
	FirstSeen time.Time
	LastSeen  time.Time
	TxCount   int
	// Fingerprints are the static engine's family names for the
	// contract's bytecode, set by Dataset.AnnotateFingerprints.
	Fingerprints []string
	// StaticFlagged is the screen's scam-shape verdict.
	StaticFlagged bool
}

// AccountRecord is one operator or affiliate account.
type AccountRecord struct {
	Address   ethtypes.Address
	Found     Discovery
	FirstSeen time.Time
	LastSeen  time.Time
}

// Lifecycle returns the active span of the account.
func (a *AccountRecord) Lifecycle() time.Duration {
	return a.LastSeen.Sub(a.FirstSeen)
}

// Dataset is the output of the pipeline: the paper's Table 1 artifact.
type Dataset struct {
	Contracts  map[ethtypes.Address]*ContractRecord
	Operators  map[ethtypes.Address]*AccountRecord
	Affiliates map[ethtypes.Address]*AccountRecord
	// Splits holds every detected profit share, keyed by transaction.
	Splits map[ethtypes.Hash][]Split
	// SeedStats freezes the dataset sizes after Step 3, before
	// expansion (the left column of Table 1).
	SeedStats Stats
}

// Stats summarizes dataset sizes.
type Stats struct {
	Contracts  int
	Operators  int
	Affiliates int
	ProfitTxs  int
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		Contracts:  make(map[ethtypes.Address]*ContractRecord),
		Operators:  make(map[ethtypes.Address]*AccountRecord),
		Affiliates: make(map[ethtypes.Address]*AccountRecord),
		Splits:     make(map[ethtypes.Hash][]Split),
	}
}

// Stats returns the current dataset sizes (the right column of
// Table 1).
func (d *Dataset) Stats() Stats {
	return Stats{
		Contracts:  len(d.Contracts),
		Operators:  len(d.Operators),
		Affiliates: len(d.Affiliates),
		ProfitTxs:  len(d.Splits),
	}
}

// IsDaaSAccount reports membership of any kind.
func (d *Dataset) IsDaaSAccount(a ethtypes.Address) bool {
	if _, ok := d.Contracts[a]; ok {
		return true
	}
	if _, ok := d.Operators[a]; ok {
		return true
	}
	_, ok := d.Affiliates[a]
	return ok
}

// AccountCount returns contracts + operators + affiliates.
func (d *Dataset) AccountCount() int {
	return len(d.Contracts) + len(d.Operators) + len(d.Affiliates)
}

// SortedContracts returns contract records ordered by address for
// deterministic iteration.
func (d *Dataset) SortedContracts() []*ContractRecord {
	out := make([]*ContractRecord, 0, len(d.Contracts))
	for _, c := range d.Contracts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return addrLess(out[i].Address, out[j].Address) })
	return out
}

// SortedOperators returns operator records ordered by address.
func (d *Dataset) SortedOperators() []*AccountRecord {
	return sortAccounts(d.Operators)
}

// SortedAffiliates returns affiliate records ordered by address.
func (d *Dataset) SortedAffiliates() []*AccountRecord {
	return sortAccounts(d.Affiliates)
}

// SortedSplitTxs returns split transaction hashes in time order.
func (d *Dataset) SortedSplitTxs() []ethtypes.Hash {
	out := make([]ethtypes.Hash, 0, len(d.Splits))
	for h := range d.Splits {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		ti := d.Splits[out[i]][0].Time
		tj := d.Splits[out[j]][0].Time
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return hashLess(out[i], out[j])
	})
	return out
}

func sortAccounts(m map[ethtypes.Address]*AccountRecord) []*AccountRecord {
	out := make([]*AccountRecord, 0, len(m))
	for _, a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return addrLess(out[i].Address, out[j].Address) })
	return out
}

func addrLess(a, b ethtypes.Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func hashLess(a, b ethtypes.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// touchAccount updates or creates an account record with a sighting,
// reporting whether the account is new to the map. A seed-phase
// sighting upgrades an expansion-discovered account, never the
// reverse: the batch build runs its whole seed phase first, so any
// party to a seed contract's split carries the seed tag there, and in
// block order the expansion sighting can come first.
func touchAccount(m map[ethtypes.Address]*AccountRecord, a ethtypes.Address, t time.Time, found Discovery) bool {
	rec, ok := m[a]
	if !ok {
		m[a] = &AccountRecord{Address: a, Found: found, FirstSeen: t, LastSeen: t}
		return true
	}
	if found == DiscoverySeed {
		rec.Found = DiscoverySeed
	}
	if t.Before(rec.FirstSeen) {
		rec.FirstSeen = t
	}
	if t.After(rec.LastSeen) {
		rec.LastSeen = t
	}
	return false
}
