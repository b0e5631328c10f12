package cluster

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/ethtypes"
)

// rollup is the materialized family list an Incremental keeps between
// rollups over one dataset, with the inputs it was derived from and
// the changes made since. A rollup re-materializes only the families
// those changes touched; the others are reused as they are. Starting
// from empty is the same code with every operator, contract and
// affiliate marked changed.
type rollup struct {
	ds *core.Dataset

	// setOf maps each member operator to its family set: the partition
	// of the direct unions plus the applied shared-counterparty unions.
	setOf map[ethtypes.Address]*opSet
	sets  int
	// applied holds the counterparties whose unions are in the
	// partition. One that later turns out to be a dataset contract
	// must not have been applied, so the rollup starts over.
	applied map[ethtypes.Address]bool

	// The §7.1 step 2 votes of every split, and each operator's split
	// count (the naming rule's dominance).
	contracts, affiliates *attribution
	opSplits              map[ethtypes.Address]int

	// degraded is the degraded set the previous rollup saw.
	degraded map[ethtypes.Address]bool
	// fams is the published family list, sorted by familyCmp.
	fams []*Family

	// Changes since the previous rollup: operators whose family must be
	// re-materialized, counterparties with new evidence, and published
	// families replaced by a merge.
	dirtyOps    map[ethtypes.Address]bool
	newEvidence map[ethtypes.Address]bool
	retired     map[*Family]bool
}

// opSet is one operator set of the rollup's partition.
type opSet struct {
	// members is unsorted; nil once the set is merged into another.
	members []ethtypes.Address
	// key is the minimum member, the set's canonical representative.
	key ethtypes.Address
	// fam is the set's materialized family.
	fam *Family
}

// attribution tallies the votes that attribute one kind of account
// (contracts, or affiliates) to families: a split through contract x
// paying operator op is one vote of op for x.
type attribution struct {
	votes map[ethtypes.Address]map[ethtypes.Address]int
	// voted lists the accounts each operator has votes for.
	voted map[ethtypes.Address][]ethtypes.Address
	// owner is the set each account is attributed to.
	owner map[ethtypes.Address]*opSet
	// dirty holds the accounts whose votes changed since the last
	// rollup.
	dirty map[ethtypes.Address]bool
}

func newAttribution() *attribution {
	return &attribution{
		votes: make(map[ethtypes.Address]map[ethtypes.Address]int),
		voted: make(map[ethtypes.Address][]ethtypes.Address),
		owner: make(map[ethtypes.Address]*opSet),
		dirty: make(map[ethtypes.Address]bool),
	}
}

func (at *attribution) vote(x, op ethtypes.Address) {
	v := at.votes[x]
	if v == nil {
		v = make(map[ethtypes.Address]int)
		at.votes[x] = v
	}
	if v[op] == 0 {
		at.voted[op] = append(at.voted[op], x)
	}
	v[op]++
	at.dirty[x] = true
}

// best returns the set with the most votes for x, the one with the
// smaller key on a tie, or nil when no member operator voted for x.
func (at *attribution) best(x ethtypes.Address, setOf map[ethtypes.Address]*opSet) *opSet {
	type tally struct {
		s *opSet
		n int
	}
	var sums []tally
next:
	for op, n := range at.votes[x] {
		s := setOf[op]
		if s == nil {
			continue
		}
		for i := range sums {
			if sums[i].s == s {
				sums[i].n += n
				continue next
			}
		}
		sums = append(sums, tally{s, n})
	}
	var best tally
	for _, t := range sums {
		if best.s == nil || t.n > best.n || t.n == best.n && addrLess(t.s.key, best.s.key) {
			best = t
		}
	}
	return best.s
}

// reassign recomputes the owner of every account whose votes changed
// and adds each live set that gained or lost an account to out.
func (at *attribution) reassign(setOf map[ethtypes.Address]*opSet, out map[*opSet]bool) {
	for x := range at.dirty {
		old, now := at.owner[x], at.best(x, setOf)
		if old == now {
			continue
		}
		if now == nil {
			delete(at.owner, x)
		} else {
			at.owner[x] = now
			out[now] = true
		}
		if old != nil && old.members != nil {
			out[old] = true
		}
	}
	clear(at.dirty)
}

// owned returns the accounts attributed to s in address order, nil for
// none.
func (at *attribution) owned(s *opSet) []ethtypes.Address {
	var out []ethtypes.Address
	for _, m := range s.members {
		for _, x := range at.voted[m] {
			if at.owner[x] == s {
				out = append(out, x)
			}
		}
	}
	sortAddrs(out)
	return slices.Compact(out)
}

// newRollup starts a rollup over ds from empty: the partition of the
// direct unions, every split's votes, every counterparty's evidence,
// and every operator marked changed.
func (inc *Incremental) newRollup(ds *core.Dataset) *rollup {
	r := &rollup{
		ds:          ds,
		setOf:       make(map[ethtypes.Address]*opSet, len(inc.uf.parent)),
		applied:     make(map[ethtypes.Address]bool),
		contracts:   newAttribution(),
		affiliates:  newAttribution(),
		opSplits:    make(map[ethtypes.Address]int),
		dirtyOps:    make(map[ethtypes.Address]bool, len(inc.uf.parent)),
		newEvidence: make(map[ethtypes.Address]bool, len(inc.counterparties)),
		retired:     make(map[*Family]bool),
	}
	uf := inc.uf.clone() // find compresses paths; the clone journals nothing
	byRoot := make(map[ethtypes.Address]*opSet)
	for a := range uf.parent {
		root, _ := uf.find(a)
		s := byRoot[root]
		if s == nil {
			s = &opSet{key: a}
			byRoot[root] = s
			r.sets++
		}
		s.members = append(s.members, a)
		if addrLess(a, s.key) {
			s.key = a
		}
		r.setOf[a] = s
		r.dirtyOps[a] = true
	}
	for cp := range inc.counterparties {
		r.newEvidence[cp] = true
	}
	for _, splits := range ds.Splits {
		for _, sp := range splits {
			r.observe(sp)
		}
	}
	return r
}

// addMember adds op as a singleton set.
func (r *rollup) addMember(op ethtypes.Address) {
	r.setOf[op] = &opSet{members: []ethtypes.Address{op}, key: op}
	r.sets++
	r.dirtyOps[op] = true
}

// union merges the sets of a and b, the smaller into the larger, and
// retires the absorbed set's family.
func (r *rollup) union(a, b ethtypes.Address) {
	sa, sb := r.setOf[a], r.setOf[b]
	if sa == nil || sb == nil || sa == sb {
		return
	}
	if len(sa.members) < len(sb.members) {
		sa, sb = sb, sa
	}
	for _, m := range sb.members {
		r.setOf[m] = sa
	}
	sa.members = append(sa.members, sb.members...)
	if addrLess(sb.key, sa.key) {
		sa.key = sb.key
	}
	if sb.fam != nil {
		r.retired[sb.fam] = true
	}
	sb.members, sb.fam = nil, nil
	r.sets--
	r.dirtyOps[sa.key] = true
}

// observe tallies one split's votes.
func (r *rollup) observe(sp core.Split) {
	r.contracts.vote(sp.Contract, sp.Operator)
	r.affiliates.vote(sp.Affiliate, sp.Operator)
	r.opSplits[sp.Operator]++
	r.dirtyOps[sp.Operator] = true
}

// Rollup brings the family list for ds up to date and returns it with
// the families this call materialized. Only families whose membership,
// votes, taint or naming inputs changed since the previous rollup over
// ds are materialized again; the others are the same *Family values as
// before. The list and its families are shared and never modified
// after they are returned: callers must not modify them either.
//
// Between rollups over one dataset, every split appended to it must be
// reported through ObserveSplits. A rollup over another dataset, the
// first one, and the first after Invalidate or Restore start from
// empty and materialize every family.
func (inc *Incremental) Rollup(ds *core.Dataset, degraded map[ethtypes.Address]bool) (fams, fresh []*Family) {
	r := inc.roll
	if r == nil || r.ds != ds {
		r = inc.newRollup(ds)
		inc.roll = r
	}
	for a := range degraded {
		if !r.degraded[a] {
			r.dirtyOps[a] = true
		}
	}
	for a := range r.degraded {
		if !degraded[a] {
			r.dirtyOps[a] = true
		}
	}
	r.degraded = maps.Clone(degraded)

	// Deferred shared-counterparty unions, skipping counterparties that
	// are dataset contracts. The partition does not depend on the order
	// they are applied in.
	for cp := range r.newEvidence {
		if _, isContract := ds.Contracts[cp]; isContract {
			continue
		}
		r.applied[cp] = true
		var first ethtypes.Address
		n := 0
		for op := range inc.counterparties[cp] {
			if n == 0 {
				first = op
			} else {
				r.union(first, op)
			}
			n++
		}
	}
	clear(r.newEvidence)
	// Shared merges are the sets the shared unions joined beyond the
	// direct ones; only growth past the most any rollup saw is counted.
	if shared := uint64(inc.uf.sets - r.sets); shared > inc.sharedMerges {
		inc.merges.With("shared_counterparty").Add(shared - inc.sharedMerges)
		inc.sharedMerges = shared
	}

	// A changed set's operators may move its contracts and affiliates,
	// and so may changed votes; a set that gains or loses one changes.
	changed := make(map[*opSet]bool)
	for op := range r.dirtyOps {
		if s := r.setOf[op]; s != nil {
			changed[s] = true
		}
	}
	clear(r.dirtyOps)
	for s := range changed {
		for _, m := range s.members {
			for _, x := range r.contracts.voted[m] {
				r.contracts.dirty[x] = true
			}
			for _, x := range r.affiliates.voted[m] {
				r.affiliates.dirty[x] = true
			}
		}
	}
	r.contracts.reassign(r.setOf, changed)
	r.affiliates.reassign(r.setOf, changed)

	for s := range changed {
		if s.fam != nil {
			r.retired[s.fam] = true
		}
		s.fam = inc.materialize(r, s)
		fresh = append(fresh, s.fam)
	}
	fams = make([]*Family, 0, len(r.fams)+len(fresh))
	for _, fam := range r.fams {
		if !r.retired[fam] {
			fams = append(fams, fam)
		}
	}
	clear(r.retired)
	fams = append(fams, fresh...)
	slices.SortFunc(fams, familyCmp)
	r.fams = fams

	var tainted int64
	for _, fam := range r.fams {
		if fam.Tainted {
			tainted++
		}
	}
	inc.reg.Gauge("daas_cluster_families", "recovered DaaS families").Set(int64(len(r.fams)))
	inc.reg.Gauge("daas_cluster_tainted_families", "families whose evidence touched quarantined records").Set(tainted)
	return r.fams, fresh
}

// materialize builds the family of set s: §7.1 step 2 attribution of
// contracts and affiliates through split votes, naming and taint.
func (inc *Incremental) materialize(r *rollup, s *opSet) *Family {
	fam := &Family{
		Operators:  slices.Clone(s.members),
		Contracts:  r.contracts.owned(s),
		Affiliates: r.affiliates.owned(s),
	}
	for _, op := range s.members {
		fam.SplitTxs += r.opSplits[op]
		if inc.tainted[op] || r.degraded[op] {
			fam.Tainted = true
		}
	}
	nameFamily(fam, inc.Labels, r.opSplits)
	return fam
}

// familyCmp orders the family list: descending victim activity (split
// count), then name, then minimum operator.
func familyCmp(a, b *Family) int {
	if c := cmp.Compare(b.SplitTxs, a.SplitTxs); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return addrCompare(a.Operators[0], b.Operators[0])
}

// FamilyOf returns the family the last rollup lists a in, as operator,
// contract or affiliate, or nil. An account listed by more than one
// family takes the one latest in the list, as screen.Compile does.
func (inc *Incremental) FamilyOf(a ethtypes.Address) *Family {
	r := inc.roll
	if r == nil {
		return nil
	}
	var out *Family
	for _, s := range [...]*opSet{r.setOf[a], r.contracts.owner[a], r.affiliates.owner[a]} {
		if s != nil && s.fam != nil && (out == nil || familyCmp(out, s.fam) < 0) {
			out = s.fam
		}
	}
	return out
}
