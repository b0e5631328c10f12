// Package measure computes the paper's §6 analyses over a recovered
// dataset: victim loss distributions (Fig. 6), operator concentration
// and lifecycles (§6.2), affiliate earnings and associations (§6.3,
// Fig. 7), the §4.3 ratio mix, the §5.2 totals, and the per-family
// roll-up behind Table 2.
package measure

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/prices"
)

// Analyzer runs measurements against a dataset and its chain.
type Analyzer struct {
	Source core.ChainSource
	Oracle *prices.Oracle
}

// Corpus is the single-pass extraction of everything the analyses
// need: per-victim theft events, per-account profits, approval
// lifecycles.
type Corpus struct {
	Dataset *core.Dataset

	// VictimLossUSD is total stolen value per victim account.
	VictimLossUSD map[ethtypes.Address]float64
	// VictimEvents holds each victim's phishing signature events
	// (deposits into and approvals to dataset contracts).
	VictimEvents map[ethtypes.Address][]VictimEvent
	// OperatorProfitUSD and AffiliateProfitUSD aggregate split legs.
	OperatorProfitUSD  map[ethtypes.Address]float64
	AffiliateProfitUSD map[ethtypes.Address]float64
	// AffiliateVictims counts distinct attributable victims per
	// affiliate.
	AffiliateVictims map[ethtypes.Address]map[ethtypes.Address]bool
	// AffiliateOperators records the operators each affiliate shared
	// profits with.
	AffiliateOperators map[ethtypes.Address]map[ethtypes.Address]bool
	// Approvals tracks grant/revoke sequences per (owner, token,
	// spender).
	Approvals map[ApprovalKey]*ApprovalState
	// RatioTxCounts histograms split transactions by operator ratio.
	RatioTxCounts map[int64]int
	// SplitVictims maps each split tx to its attributed victim (zero
	// address when the depositor is itself a DaaS account, e.g. NFT
	// liquidation proceeds).
	SplitVictims map[ethtypes.Hash]ethtypes.Address
	// SkippedQuarantined counts corpus transactions the integrity layer
	// refused — their thefts and approvals are missing from the
	// measurements, making the reported losses a lower bound.
	SkippedQuarantined int64
}

// VictimEvent is one phishing transaction signed by a victim.
type VictimEvent struct {
	Tx    ethtypes.Hash
	Time  time.Time
	Block uint64
	// Deposit is true for direct ETH deposits, false for approvals.
	Deposit bool
	LossUSD float64
}

// ApprovalKey identifies an allowance relationship.
type ApprovalKey struct {
	Owner   ethtypes.Address
	Token   ethtypes.Address
	Spender ethtypes.Address
}

// ApprovalState tracks whether the latest grant was revoked.
type ApprovalState struct {
	Granted time.Time
	Revoked bool
}

// BuildCorpus walks every dataset contract's history once and extracts
// the measurement corpus.
func (a *Analyzer) BuildCorpus(ds *core.Dataset) (*Corpus, error) {
	if a.Source == nil || a.Oracle == nil {
		return nil, fmt.Errorf("measure: Analyzer needs Source and Oracle")
	}
	c := &Corpus{
		Dataset:            ds,
		VictimLossUSD:      make(map[ethtypes.Address]float64),
		VictimEvents:       make(map[ethtypes.Address][]VictimEvent),
		OperatorProfitUSD:  make(map[ethtypes.Address]float64),
		AffiliateProfitUSD: make(map[ethtypes.Address]float64),
		AffiliateVictims:   make(map[ethtypes.Address]map[ethtypes.Address]bool),
		AffiliateOperators: make(map[ethtypes.Address]map[ethtypes.Address]bool),
		Approvals:          make(map[ApprovalKey]*ApprovalState),
		RatioTxCounts:      make(map[int64]int),
		SplitVictims:       make(map[ethtypes.Hash]ethtypes.Address),
	}

	seenTx := make(map[ethtypes.Hash]bool)
	for _, rec := range ds.SortedContracts() {
		contract := rec.Address
		hashes, err := a.Source.TransactionsOf(contract)
		if err != nil {
			return nil, fmt.Errorf("measure: history of %s: %w", contract.Short(), err)
		}
		for _, h := range hashes {
			if seenTx[h] {
				continue
			}
			seenTx[h] = true
			tx, err := a.Source.Transaction(h)
			if err != nil {
				if errors.Is(err, core.ErrQuarantined) {
					c.SkippedQuarantined++
					continue
				}
				return nil, err
			}
			r, err := a.Source.Receipt(h)
			if err != nil {
				if errors.Is(err, core.ErrQuarantined) {
					c.SkippedQuarantined++
					continue
				}
				return nil, err
			}
			if tx == nil || r == nil {
				c.SkippedQuarantined++
				continue
			}
			if !r.Status {
				continue
			}
			a.absorbTransfers(c, ds, tx, r)
			a.absorbApprovals(c, ds, r)
		}
	}
	a.absorbSplits(c, ds)
	return c, nil
}

// absorbTransfers attributes thefts: any transfer whose source is not
// a DaaS account, flowing to a DaaS account, inside a transaction that
// touches a dataset contract, is stolen victim value.
func (a *Analyzer) absorbTransfers(c *Corpus, ds *core.Dataset, tx *chain.Transaction, r *chain.Receipt) {
	for _, tr := range r.Transfers {
		if ds.IsDaaSAccount(tr.From) {
			continue
		}
		if !ds.IsDaaSAccount(tr.To) {
			continue
		}
		usd := a.Oracle.ValueUSD(tr.Asset, tr.Amount, r.Timestamp)
		if usd <= 0 {
			continue
		}
		c.VictimLossUSD[tr.From] += usd
		if tr.Asset.Kind == chain.AssetETH && tx.From == tr.From {
			// A direct deposit is itself a phishing transaction signed
			// by the victim.
			c.VictimEvents[tr.From] = append(c.VictimEvents[tr.From], VictimEvent{
				Tx: r.TxHash, Time: r.Timestamp, Block: r.BlockNumber, Deposit: true, LossUSD: usd,
			})
		}
	}
}

// absorbApprovals tracks allowance grants to dataset contracts and
// their revocations — the §6.1 unrevoked-permission analysis.
func (a *Analyzer) absorbApprovals(c *Corpus, ds *core.Dataset, r *chain.Receipt) {
	for _, ap := range r.Approvals {
		if _, isContract := ds.Contracts[ap.Spender]; !isContract {
			continue
		}
		key := ApprovalKey{Owner: ap.Owner, Token: ap.Token, Spender: ap.Spender}
		// approve(0) and setApprovalForAll(false) both arrive with a
		// zero amount and All unset; everything else is a grant.
		revocation := ap.Amount.IsZero() && !ap.All
		if revocation {
			if st := c.Approvals[key]; st != nil {
				st.Revoked = true
			}
			continue
		}
		if st := c.Approvals[key]; st == nil {
			c.Approvals[key] = &ApprovalState{Granted: r.Timestamp}
		} else {
			st.Granted = r.Timestamp
			st.Revoked = false
		}
		c.VictimEvents[ap.Owner] = append(c.VictimEvents[ap.Owner], VictimEvent{
			Tx: r.TxHash, Time: r.Timestamp, Block: r.BlockNumber,
		})
	}
}

// absorbSplits aggregates profit legs, ratios, and victim
// attributions from the dataset's split records.
func (a *Analyzer) absorbSplits(c *Corpus, ds *core.Dataset) {
	for h, splits := range ds.Splits {
		ratioCounted := make(map[int64]bool)
		for _, sp := range splits {
			opUSD := a.assetUSD(sp.Asset, sp.OperatorAmount, sp.Time)
			affUSD := a.assetUSD(sp.Asset, sp.AffiliateAmount, sp.Time)
			c.OperatorProfitUSD[sp.Operator] += opUSD
			c.AffiliateProfitUSD[sp.Affiliate] += affUSD
			if !ratioCounted[sp.RatioPM] {
				ratioCounted[sp.RatioPM] = true
				c.RatioTxCounts[sp.RatioPM]++
			}
			if c.AffiliateOperators[sp.Affiliate] == nil {
				c.AffiliateOperators[sp.Affiliate] = make(map[ethtypes.Address]bool)
			}
			c.AffiliateOperators[sp.Affiliate][sp.Operator] = true

			victim := a.victimOfSplit(ds, sp)
			c.SplitVictims[h] = victim
			if !victim.IsZero() {
				if c.AffiliateVictims[sp.Affiliate] == nil {
					c.AffiliateVictims[sp.Affiliate] = make(map[ethtypes.Address]bool)
				}
				c.AffiliateVictims[sp.Affiliate][victim] = true
			}
		}
	}
}

// victimOfSplit attributes a split to the account that lost the
// tokens: the payer when it is not a DaaS account (ERC-20 pulls), else
// the non-DaaS depositor of the same transaction (ETH thefts). NFT
// liquidation splits have no victim in the split transaction itself.
func (a *Analyzer) victimOfSplit(ds *core.Dataset, sp core.Split) ethtypes.Address {
	if !ds.IsDaaSAccount(sp.Payer) {
		return sp.Payer
	}
	r, err := a.Source.Receipt(sp.TxHash)
	if err != nil || r == nil {
		return ethtypes.Address{}
	}
	for _, tr := range r.Transfers {
		if tr.To == sp.Contract && !ds.IsDaaSAccount(tr.From) {
			return tr.From
		}
	}
	return ethtypes.Address{}
}

func (a *Analyzer) assetUSD(asset chain.Asset, amount ethtypes.Wei, t time.Time) float64 {
	return a.Oracle.ValueUSD(asset, amount, t)
}

// Totals is the §5.2 headline: overall operator and affiliate takings
// and the victim population.
type Totals struct {
	OperatorUSD  float64
	AffiliateUSD float64
	Victims      int
	ProfitTxs    int
}

// Totals computes the headline numbers.
func (c *Corpus) Totals() Totals {
	t := Totals{ProfitTxs: len(c.Dataset.Splits)}
	for _, v := range c.OperatorProfitUSD {
		t.OperatorUSD += v
	}
	for _, v := range c.AffiliateProfitUSD {
		t.AffiliateUSD += v
	}
	t.Victims = len(c.VictimLossUSD)
	return t
}

// Bucket is one band of a distribution report.
type Bucket struct {
	Label    string
	Count    int
	Fraction float64
}

// bucketize builds distribution shares from thresholds.
func bucketize(values []float64, bounds []float64, labels []string) []Bucket {
	counts := make([]int, len(bounds)+1)
	for _, v := range values {
		idx := len(bounds)
		for i, b := range bounds {
			if v < b {
				idx = i
				break
			}
		}
		counts[idx]++
	}
	out := make([]Bucket, len(counts))
	total := len(values)
	for i, n := range counts {
		out[i] = Bucket{Label: labels[i], Count: n}
		if total > 0 {
			out[i].Fraction = float64(n) / float64(total)
		}
	}
	return out
}

// sortedUSD returns map values sorted descending.
func sortedUSD(m map[ethtypes.Address]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
