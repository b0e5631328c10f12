package screen

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// Compile builds a snapshot from the pipeline's outputs: every dataset
// account with its Table 1 partition as the reason, family names and
// taint flags from the §7.1 clustering (families may be nil when
// clustering was skipped), and the §8.2 detector's confirmed phishing
// domains. This is the one source of truth both the wallet guard and
// the screening RPC serve from. An account listed by more than one
// family takes the family latest in the list.
func Compile(ds *core.Dataset, families []*cluster.Family, phishingDomains []string) *Snapshot {
	famOf := make(map[ethtypes.Address]*cluster.Family)
	for _, fam := range families {
		for _, a := range fam.Operators {
			famOf[a] = fam
		}
		for _, a := range fam.Contracts {
			famOf[a] = fam
		}
		for _, a := range fam.Affiliates {
			famOf[a] = fam
		}
	}
	d := Delta{Domains: phishingDomains}
	if ds != nil {
		// An account in two partitions is upserted twice with the same
		// record; Apply keeps one.
		d.Upserts = make([]Record, 0, ds.AccountCount())
		for a := range ds.Contracts {
			d.Upserts = append(d.Upserts, AccountRecord(ds, a, famOf[a]))
		}
		for _, m := range []map[ethtypes.Address]*core.AccountRecord{ds.Operators, ds.Affiliates} {
			for a := range m {
				d.Upserts = append(d.Upserts, AccountRecord(ds, a, famOf[a]))
			}
		}
	}
	return new(Snapshot).Apply(d)
}

// AccountRecord is the record a snapshot lists for dataset account a,
// attributed to fam (nil for none). An account in more than one
// partition is listed once, by the last of contract, operator,
// affiliate.
func AccountRecord(ds *core.Dataset, a ethtypes.Address, fam *cluster.Family) Record {
	r := Record{Address: a}
	switch {
	case ds.Affiliates[a] != nil:
		r.Kind, r.Reason = KindAffiliate, ReasonAffiliate
	case ds.Operators[a] != nil:
		r.Kind, r.Reason = KindOperator, ReasonOperator
	default:
		r.Kind, r.Reason = KindContract, ReasonContract
	}
	if fam != nil {
		r.Family, r.Tainted = fam.Name, fam.Tainted
	}
	return r
}
