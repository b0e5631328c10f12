package measure

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ethtypes"
)

// VictimReport reproduces §6.1 and Fig. 6.
type VictimReport struct {
	Victims      int
	TotalLossUSD float64
	// LossBuckets follows Fig. 6: <$100, $100–1k, $1k–5k, >$5k.
	LossBuckets []Bucket
	// Under1000Fraction is the headline 83.5% statistic.
	Under1000Fraction float64
	// MultiPhished counts victims with two or more phishing signature
	// events.
	MultiPhished int
	// SimultaneousFraction: among multi-phished victims, the share that
	// signed several phishing transactions in one block (paper: 78.1%).
	SimultaneousFraction float64
	// UnrevokedFraction: among multi-phished victims, the share with a
	// still-unrevoked approval to a profit-sharing contract (paper:
	// 28.6%).
	UnrevokedFraction float64
	// AvgDailyVictims and DaysOver100 quantify "more than 100 victims
	// per day".
	AvgDailyVictims float64
	DaysOver100     int
	ActiveDays      int
}

// approvalReads counts the approval entries Victims reads; the
// linearity guard in the tests reads it.
var approvalReads atomic.Int64

// Victims computes the victim-side report.
func (c *Corpus) Victims() VictimReport {
	rep := VictimReport{Victims: len(c.VictimLossUSD)}
	losses := make([]float64, 0, len(c.VictimLossUSD))
	for _, v := range c.VictimLossUSD {
		losses = append(losses, v)
		rep.TotalLossUSD += v
	}
	rep.LossBuckets = bucketize(losses,
		[]float64{100, 1000, 5000},
		[]string{"less than $100", "between $100 and $1,000", "between $1,000 and $5,000", "more than $5,000"})
	under := 0
	for _, v := range losses {
		if v < 1000 {
			under++
		}
	}
	if len(losses) > 0 {
		rep.Under1000Fraction = float64(under) / float64(len(losses))
	}

	// Multi-phish analysis over signature events.
	unrevokedOwners := make(map[ethtypes.Address]bool)
	for key, st := range c.Approvals {
		if !st.Revoked {
			unrevokedOwners[key.Owner] = true
		}
	}
	approvalReads.Add(int64(len(c.Approvals)))
	var simultaneous, unrevoked int
	victimsWithEvents := 0
	daily := make(map[string]map[ethtypes.Address]bool)
	for victim, events := range c.VictimEvents {
		victimsWithEvents++
		for _, ev := range events {
			day := ev.Time.UTC().Format("2006-01-02")
			if daily[day] == nil {
				daily[day] = make(map[ethtypes.Address]bool)
			}
			daily[day][victim] = true
		}
		if len(events) < 2 {
			continue
		}
		rep.MultiPhished++
		blocks := make(map[uint64]int)
		sameBlock := false
		for _, ev := range events {
			blocks[ev.Block]++
			if blocks[ev.Block] >= 2 {
				sameBlock = true
			}
		}
		// Our chain mines each event batch in its own block, so
		// same-timestamp events are the simultaneity witness as well.
		if !sameBlock {
			times := make(map[int64]int)
			for _, ev := range events {
				times[ev.Time.Unix()]++
				if times[ev.Time.Unix()] >= 2 {
					sameBlock = true
				}
			}
		}
		if sameBlock {
			simultaneous++
		}
		if unrevokedOwners[victim] {
			unrevoked++
		}
	}
	if rep.MultiPhished > 0 {
		rep.SimultaneousFraction = float64(simultaneous) / float64(rep.MultiPhished)
		rep.UnrevokedFraction = float64(unrevoked) / float64(rep.MultiPhished)
	}
	rep.ActiveDays = len(daily)
	totalDaily := 0
	for _, victims := range daily {
		totalDaily += len(victims)
		if len(victims) > 100 {
			rep.DaysOver100++
		}
	}
	if rep.ActiveDays > 0 {
		rep.AvgDailyVictims = float64(totalDaily) / float64(rep.ActiveDays)
	}
	return rep
}

// OperatorReport reproduces §6.2.
type OperatorReport struct {
	Operators int
	TotalUSD  float64
	// TopQuartileShare is the profit share of the top 25% of operator
	// accounts (paper: 25.0% of accounts take 75.7%).
	TopQuartileShare float64
	TopQuartileCount int
	// TopEarnerUSD is the single largest operator account's profit.
	TopEarnerUSD float64
	// Lifecycles of inactive operators, in days.
	MinLifecycleDays float64
	MaxLifecycleDays float64
	InactiveCount    int
}

// Operators computes the operator-side report. now is the dataset end
// used for the inactivity cutoff.
func (c *Corpus) Operators(now time.Time) OperatorReport {
	rep := OperatorReport{Operators: len(c.Dataset.Operators)}
	profits := sortedUSD(c.OperatorProfitUSD)
	rep.TotalUSD = sum(profits)
	if len(profits) > 0 {
		rep.TopEarnerUSD = profits[0]
		k := (len(profits) + 3) / 4
		rep.TopQuartileCount = k
		if rep.TotalUSD > 0 {
			rep.TopQuartileShare = sum(profits[:k]) / rep.TotalUSD
		}
	}
	first := true
	for _, recAddr := range c.Dataset.SortedOperators() {
		rec := recAddr
		if now.Sub(rec.LastSeen) < 30*24*time.Hour {
			continue // still active
		}
		rep.InactiveCount++
		days := rec.Lifecycle().Hours() / 24
		if first {
			rep.MinLifecycleDays, rep.MaxLifecycleDays = days, days
			first = false
			continue
		}
		if days < rep.MinLifecycleDays {
			rep.MinLifecycleDays = days
		}
		if days > rep.MaxLifecycleDays {
			rep.MaxLifecycleDays = days
		}
	}
	return rep
}

// AffiliateReport reproduces §6.3 and Fig. 7.
type AffiliateReport struct {
	Affiliates int
	TotalUSD   float64
	// ProfitBuckets follows Fig. 7: <$1k, $1k–10k, $10k–50k, >$50k.
	ProfitBuckets     []Bucket
	Over1000Fraction  float64
	Over10000Fraction float64
	// Over10VictimsFraction is the affiliate-traffic statistic (26.1%).
	Over10VictimsFraction float64
	// SingleOperatorFraction and UpToThreeFraction are the association
	// statistics (60.4% and 90.2%).
	SingleOperatorFraction float64
	UpToThreeFraction      float64
}

// Affiliates computes the affiliate-side report.
func (c *Corpus) Affiliates() AffiliateReport {
	rep := AffiliateReport{Affiliates: len(c.Dataset.Affiliates)}
	profits := make([]float64, 0, len(c.AffiliateProfitUSD))
	var over1k, over10k int
	for _, rec := range c.Dataset.SortedAffiliates() {
		v := c.AffiliateProfitUSD[rec.Address]
		profits = append(profits, v)
		rep.TotalUSD += v
		if v > 1000 {
			over1k++
		}
		if v > 10000 {
			over10k++
		}
	}
	rep.ProfitBuckets = bucketize(profits,
		[]float64{1000, 10000, 50000},
		[]string{"less than $1,000", "between $1,000 and $10,000", "between $10,000 and $50,000", "more than $50,000"})
	n := len(profits)
	if n > 0 {
		rep.Over1000Fraction = float64(over1k) / float64(n)
		rep.Over10000Fraction = float64(over10k) / float64(n)
	}
	var over10v, single, upTo3 int
	for _, rec := range c.Dataset.SortedAffiliates() {
		if len(c.AffiliateVictims[rec.Address]) > 10 {
			over10v++
		}
		switch ops := len(c.AffiliateOperators[rec.Address]); {
		case ops == 1:
			single++
			upTo3++
		case ops > 1 && ops <= 3:
			upTo3++
		}
	}
	if n > 0 {
		rep.Over10VictimsFraction = float64(over10v) / float64(n)
		rep.SingleOperatorFraction = float64(single) / float64(n)
		rep.UpToThreeFraction = float64(upTo3) / float64(n)
	}
	return rep
}

// RatioShare is one row of the §4.3 distribution.
type RatioShare struct {
	PerMille int64
	Count    int
	Fraction float64
}

// RatioDistribution histograms profit-sharing transactions by operator
// ratio, descending by share.
func (c *Corpus) RatioDistribution() []RatioShare {
	total := 0
	for _, n := range c.RatioTxCounts {
		total += n
	}
	out := make([]RatioShare, 0, len(c.RatioTxCounts))
	for pm, n := range c.RatioTxCounts {
		rs := RatioShare{PerMille: pm, Count: n}
		if total > 0 {
			rs.Fraction = float64(n) / float64(total)
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PerMille < out[j].PerMille
	})
	return out
}

// FamilyRow is one column of the paper's Table 2.
type FamilyRow struct {
	Name       string
	Contracts  int
	Operators  int
	Affiliates int
	Victims    int
	ProfitUSD  float64
	Start      time.Time
	End        time.Time
	// Primary contract mean lifecycle in days (§7.2), over contracts
	// with at least MinPrimaryTxs transactions.
	PrimaryLifecycleDays float64
	// Tainted carries the clustering-time flag: some of this family's
	// evidence was quarantined, so its figures are lower bounds.
	Tainted bool
}

// MinPrimaryTxs is the paper's primary-contract threshold (>100
// profit-sharing transactions) at full scale.
const MinPrimaryTxs = 100

// FamilyTable rolls the clustering result up into Table 2 rows, sorted
// by victim count. primaryThreshold scales MinPrimaryTxs for small
// worlds (pass MinPrimaryTxs at paper scale).
func (c *Corpus) FamilyTable(fams []*cluster.Family, primaryThreshold int) []FamilyRow {
	rows := make([]FamilyRow, 0, len(fams))
	for _, fam := range fams {
		row := FamilyRow{
			Name:       fam.Name,
			Contracts:  len(fam.Contracts),
			Operators:  len(fam.Operators),
			Affiliates: len(fam.Affiliates),
			Tainted:    fam.Tainted,
		}
		victims := make(map[ethtypes.Address]bool)
		for _, op := range fam.Operators {
			row.ProfitUSD += c.OperatorProfitUSD[op]
		}
		for _, aff := range fam.Affiliates {
			row.ProfitUSD += c.AffiliateProfitUSD[aff]
			for v := range c.AffiliateVictims[aff] {
				victims[v] = true
			}
		}
		row.Victims = len(victims)

		var primDays float64
		var primCount int
		for _, con := range fam.Contracts {
			rec := c.Dataset.Contracts[con]
			if rec == nil {
				continue
			}
			if row.Start.IsZero() || rec.FirstSeen.Before(row.Start) {
				row.Start = rec.FirstSeen
			}
			if rec.LastSeen.After(row.End) {
				row.End = rec.LastSeen
			}
			if rec.TxCount >= primaryThreshold {
				primDays += rec.LastSeen.Sub(rec.FirstSeen).Hours() / 24
				primCount++
			}
		}
		if primCount > 0 {
			row.PrimaryLifecycleDays = primDays / float64(primCount)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Victims != rows[j].Victims {
			return rows[i].Victims > rows[j].Victims
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// TopFamiliesProfitShare returns the combined profit share of the k
// leading families (paper: top 3 take 93.9%).
func TopFamiliesProfitShare(rows []FamilyRow, k int) float64 {
	var total, top float64
	// Rank by profit for this statistic.
	byProfit := append([]FamilyRow{}, rows...)
	sort.Slice(byProfit, func(i, j int) bool { return byProfit[i].ProfitUSD > byProfit[j].ProfitUSD })
	for i, row := range byProfit {
		total += row.ProfitUSD
		if i < k {
			top += row.ProfitUSD
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// LabelCoverage computes the §8.1 statistic: the fraction of dataset
// accounts carrying an Etherscan label.
func (c *Corpus) LabelCoverage(has func(ethtypes.Address) bool) float64 {
	total, labeled := 0, 0
	count := func(a ethtypes.Address) {
		total++
		if has(a) {
			labeled++
		}
	}
	for _, rec := range c.Dataset.SortedContracts() {
		count(rec.Address)
	}
	for _, rec := range c.Dataset.SortedOperators() {
		count(rec.Address)
	}
	for _, rec := range c.Dataset.SortedAffiliates() {
		count(rec.Address)
	}
	if total == 0 {
		return 0
	}
	return float64(labeled) / float64(total)
}
