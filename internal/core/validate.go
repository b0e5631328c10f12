package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ethtypes"
)

// ValidationReport summarizes the §5.2 sampling validation: for every
// dataset account, the most recent profit-sharing transactions are
// re-reviewed for the two-transfer split shape with the operator on
// the smaller share.
type ValidationReport struct {
	ContractsReviewed  int
	OperatorsReviewed  int
	AffiliatesReviewed int
	TxReviewed         int
	FalsePositives     []ethtypes.Hash
	// SkippedQuarantined counts sampled transactions that could not be
	// re-reviewed because the integrity layer refused their records;
	// they are neither confirmed nor false positives.
	SkippedQuarantined int
	// ReviewedFraction is TxReviewed over the dataset's split count,
	// matching the paper's 44.8% coverage statistic.
	ReviewedFraction float64
}

// Validator re-examines dataset entries the way the paper's analyst
// team did.
type Validator struct {
	// Source is the chain; the review reads it through LayerOf(Source).
	Source ChainSource
	// SamplePerAccount is the number of most-recent transactions
	// reviewed per account (the paper used 10).
	SamplePerAccount int
}

// reviewVisits counts the split entries the §5.2 review reads: one
// per split while indexing, one per list entry while sampling. The
// linearity guard in the tests reads it.
var reviewVisits atomic.Int64

// Validate reviews the dataset and returns the report. A false
// positive is any recorded split that fails independent re-derivation
// from the receipt. Validate does not modify v, so one Validator may
// serve concurrent calls.
func (v *Validator) Validate(ds *Dataset) (*ValidationReport, error) {
	sample := v.SamplePerAccount
	if sample <= 0 {
		sample = 10
	}
	report := &ValidationReport{}
	reviewed := make(map[ethtypes.Hash]bool)
	strict := Classifier{} // default strict settings
	lists := reviewLists(ds)
	ctx, layer := context.Background(), LayerOf(v.Source)

	reviewAccount := func(addr ethtypes.Address) (int, error) {
		count, visited := 0, 0
		defer func() { reviewVisits.Add(int64(visited)) }()
		for _, h := range lists[addr] {
			if count >= sample {
				break
			}
			visited++
			if reviewed[h] {
				// Already cross-checked for another account: the paper
				// skips and samples further.
				continue
			}
			reviewed[h] = true
			count++
			tx, r, err := readPair(ctx, layer, h)
			if err != nil {
				return count, err
			}
			if tx == nil {
				report.SkippedQuarantined++
				continue
			}
			rederived := strict.Classify(tx, r)
			if !splitsConfirm(ds.Splits[h], rederived) {
				report.FalsePositives = append(report.FalsePositives, h)
			}
		}
		return count, nil
	}

	for _, rec := range ds.SortedContracts() {
		n, err := reviewAccount(rec.Address)
		if err != nil {
			return nil, fmt.Errorf("core: validate contract %s: %w", rec.Address.Short(), err)
		}
		report.ContractsReviewed++
		report.TxReviewed += n
	}
	for _, rec := range ds.SortedOperators() {
		n, err := reviewAccount(rec.Address)
		if err != nil {
			return nil, err
		}
		report.OperatorsReviewed++
		report.TxReviewed += n
	}
	for _, rec := range ds.SortedAffiliates() {
		n, err := reviewAccount(rec.Address)
		if err != nil {
			return nil, err
		}
		report.AffiliatesReviewed++
		report.TxReviewed += n
	}
	if len(ds.Splits) > 0 {
		report.ReviewedFraction = float64(report.TxReviewed) / float64(len(ds.Splits))
	}
	return report, nil
}

// reviewLists groups the recorded split transactions by account, each
// list newest first (ties broken by hash): a transaction is listed once
// under every distinct contract, operator and affiliate of its splits.
// One sort of all hashes fixes the order, so the per-account lists
// come out sorted and the whole index costs O(n log n) in the splits.
func reviewLists(ds *Dataset) map[ethtypes.Address][]ethtypes.Hash {
	type dated struct {
		t time.Time
		h ethtypes.Hash
	}
	order := make([]dated, 0, len(ds.Splits))
	visited := 0
	for h, splits := range ds.Splits {
		visited += len(splits)
		if len(splits) > 0 {
			order = append(order, dated{splits[0].Time, h})
		}
	}
	reviewVisits.Add(int64(visited))
	slices.SortFunc(order, func(a, b dated) int {
		if c := b.t.Compare(a.t); c != 0 {
			return c
		}
		return bytes.Compare(a.h[:], b.h[:])
	})
	lists := make(map[ethtypes.Address][]ethtypes.Hash)
	var parties []ethtypes.Address
	for _, d := range order {
		parties = parties[:0]
		for _, sp := range ds.Splits[d.h] {
			for _, a := range [3]ethtypes.Address{sp.Contract, sp.Operator, sp.Affiliate} {
				if !slices.Contains(parties, a) {
					parties = append(parties, a)
				}
			}
		}
		for _, a := range parties {
			lists[a] = append(lists[a], d.h)
		}
	}
	return lists
}

// splitsConfirm checks that every recorded split re-derives: same
// contract, operator on the smaller share, matching ratio.
func splitsConfirm(recorded, rederived []Split) bool {
	if len(recorded) == 0 {
		return false
	}
	for _, rec := range recorded {
		ok := false
		for _, re := range rederived {
			if re.Contract == rec.Contract && re.Operator == rec.Operator &&
				re.Affiliate == rec.Affiliate && re.RatioPM == rec.RatioPM &&
				re.OperatorAmount.Cmp(re.AffiliateAmount) <= 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
