// Package report renders measurement results in the shape of the
// paper's tables and figures: Table 1 (dataset construction), Table 2
// (family overview), Table 3 (contract implementations), Table 4
// (TLDs), Figure 6/7 distributions, and the §4.3 ratio mix. Output is
// aligned text suitable for terminals and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/domains"
	"repro/internal/measure"
	"repro/internal/sitehunt"
)

// newTab returns a tabwriter with the house style.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// usd renders a dollar amount the way the paper does ($23.1M, $0.8K).
func usd(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("$%.1fB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("$%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("$%.1fK", v/1e3)
	default:
		return fmt.Sprintf("$%.0f", v)
	}
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Table1 renders seed vs expanded dataset sizes.
func Table1(w io.Writer, seed, expanded core.Stats) {
	fmt.Fprintln(w, "Table 1: Overview of Dataset Collection Results")
	tw := newTab(w)
	fmt.Fprintln(tw, "\tSeed Dataset\tExpanded Dataset")
	fmt.Fprintf(tw, "Profit-sharing Contracts\t%d\t%d\n", seed.Contracts, expanded.Contracts)
	fmt.Fprintf(tw, "Operator Accounts\t%d\t%d\n", seed.Operators, expanded.Operators)
	fmt.Fprintf(tw, "Affiliate Accounts\t%d\t%d\n", seed.Affiliates, expanded.Affiliates)
	fmt.Fprintf(tw, "DaaS Accounts\t%d\t%d\n",
		seed.Contracts+seed.Operators+seed.Affiliates,
		expanded.Contracts+expanded.Operators+expanded.Affiliates)
	fmt.Fprintf(tw, "Profit-sharing Transactions\t%d\t%d\n", seed.ProfitTxs, expanded.ProfitTxs)
	tw.Flush()
}

// Table2 renders the family overview. A family marked with a trailing
// "†" touched quarantined evidence: its row is a lower bound.
func Table2(w io.Writer, rows []measure.FamilyRow) {
	fmt.Fprintln(w, "Table 2: Overview of DaaS Families (sorted by victim accounts)")
	tw := newTab(w)
	fmt.Fprintln(tw, "DaaS Family\tContracts\tOperators\tAffiliates\tVictims\tTotal Profits\tActive")
	tainted := false
	for _, row := range rows {
		name := row.Name
		if row.Tainted {
			name += " †"
			tainted = true
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s – %s\n",
			name, row.Contracts, row.Operators, row.Affiliates, row.Victims,
			usd(row.ProfitUSD), month(row.Start), month(row.End))
	}
	tw.Flush()
	if tainted {
		fmt.Fprintln(w, "† evidence partially quarantined by the integrity layer; figures are lower bounds.")
	}
	fmt.Fprintf(w, "Top-3 families hold %s of all profits.\n",
		pct(measure.TopFamiliesProfitShare(rows, 3)))
}

func month(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.Format("2006-01")
}

// Table3Row pairs a family with its decompiled contract analysis.
type Table3Row struct {
	Family   string
	Analysis contracts.Analysis
}

// Table3 renders the phishing-function comparison.
func Table3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Phishing Functions in Dominant DaaS Family Profit-sharing Contracts")
	tw := newTab(w)
	fmt.Fprintln(tw, "Family\tETH\tERC Tokens & NFTs\tObserved operator share")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\n",
			row.Family, row.Analysis.ETHFunction, row.Analysis.TokenFunction,
			float64(row.Analysis.OperatorPerMille)/10)
	}
	tw.Flush()
}

// Table4 renders the top-k TLD distribution.
func Table4(w io.Writer, dist []domains.TLDShare, k int) {
	fmt.Fprintf(w, "Table 4: Top %d TLDs in Detected Phishing Domains\n", k)
	tw := newTab(w)
	fmt.Fprintln(tw, "TLD\tCount\tProportion")
	for i, share := range dist {
		if i >= k {
			break
		}
		fmt.Fprintf(tw, ".%s\t%d\t%s\n", share.TLD, share.Count, pct(share.Fraction))
	}
	tw.Flush()
}

// bar renders a proportional ASCII bar.
func bar(fraction float64) string {
	n := int(fraction*40 + 0.5)
	return strings.Repeat("#", n)
}

// Figure6 renders the victim loss distribution.
func Figure6(w io.Writer, rep measure.VictimReport) {
	fmt.Fprintln(w, "Figure 6: Distribution of Victim Account Losses")
	tw := newTab(w)
	for _, b := range rep.LossBuckets {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", b.Label, pct(b.Fraction), b.Count, bar(b.Fraction))
	}
	tw.Flush()
	fmt.Fprintf(w, "%s of victim accounts lost less than $1,000.\n", pct(rep.Under1000Fraction))
}

// Figure7 renders the affiliate profit distribution.
func Figure7(w io.Writer, rep measure.AffiliateReport) {
	fmt.Fprintln(w, "Figure 7: Distribution of Affiliate Account Profits")
	tw := newTab(w)
	for _, b := range rep.ProfitBuckets {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", b.Label, pct(b.Fraction), b.Count, bar(b.Fraction))
	}
	tw.Flush()
	fmt.Fprintf(w, "%s of affiliates earned over $1,000; %s earned over $10,000.\n",
		pct(rep.Over1000Fraction), pct(rep.Over10000Fraction))
}

// RatioTable renders the §4.3 profit-sharing ratio distribution.
func RatioTable(w io.Writer, dist []measure.RatioShare) {
	fmt.Fprintln(w, "Profit-sharing ratio distribution (operator share, §4.3)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Operator share\tTransactions\tProportion")
	for _, rs := range dist {
		fmt.Fprintf(tw, "%.1f%%\t%d\t%s\n", float64(rs.PerMille)/10, rs.Count, pct(rs.Fraction))
	}
	tw.Flush()
}

// Totals renders the §5.2 headline numbers.
func Totals(w io.Writer, t measure.Totals) {
	fmt.Fprintf(w, "Operators earned %s and affiliates earned %s from %d victim accounts across %d profit-sharing transactions.\n",
		usd(t.OperatorUSD), usd(t.AffiliateUSD), t.Victims, t.ProfitTxs)
}

// Validation renders the §5.2 validation summary.
func Validation(w io.Writer, rep *core.ValidationReport) {
	fmt.Fprintf(w, "Validation: reviewed %d transactions (%s of the dataset) across %d contracts, %d operators, %d affiliates; %d false positives.\n",
		rep.TxReviewed, pct(rep.ReviewedFraction),
		rep.ContractsReviewed, rep.OperatorsReviewed, rep.AffiliatesReviewed,
		len(rep.FalsePositives))
}

// VictimFindings renders the §6.1 bullet statistics.
func VictimFindings(w io.Writer, rep measure.VictimReport) {
	fmt.Fprintf(w, "Victims: %d accounts lost %s; %.1f victims/day on average (%d days above 100/day).\n",
		rep.Victims, usd(rep.TotalLossUSD), rep.AvgDailyVictims, rep.DaysOver100)
	fmt.Fprintf(w, "Multi-phished: %d accounts; %s signed multiple phishing txs simultaneously; %s never revoked approvals.\n",
		rep.MultiPhished, pct(rep.SimultaneousFraction), pct(rep.UnrevokedFraction))
}

// OperatorFindings renders the §6.2 bullet statistics.
func OperatorFindings(w io.Writer, rep measure.OperatorReport) {
	fmt.Fprintf(w, "Operators: %d accounts earned %s; the top %d accounts (25%%) hold %s of operator profits.\n",
		rep.Operators, usd(rep.TotalUSD), rep.TopQuartileCount, pct(rep.TopQuartileShare))
	if rep.InactiveCount > 0 {
		fmt.Fprintf(w, "Lifecycles of %d inactive operator accounts range from %.0f to %.0f days.\n",
			rep.InactiveCount, rep.MinLifecycleDays, rep.MaxLifecycleDays)
	}
}

// AffiliateFindings renders the §6.3 bullet statistics.
func AffiliateFindings(w io.Writer, rep measure.AffiliateReport) {
	fmt.Fprintf(w, "Affiliates: %d accounts earned %s; %s drew tokens from more than 10 victims.\n",
		rep.Affiliates, usd(rep.TotalUSD), pct(rep.Over10VictimsFraction))
	fmt.Fprintf(w, "%s of affiliates share profits with a single operator; %s with at most three.\n",
		pct(rep.SingleOperatorFraction), pct(rep.UpToThreeFraction))
}

// SiteHunt renders the §8.2 detection summary.
func SiteHunt(w io.Writer, rep *sitehunt.Report) {
	fmt.Fprintf(w, "Website detection: %d certificates seen, %d domains, %d suspicious, %d crawled, %d confirmed drainer deployments.\n",
		rep.CertsSeen, rep.DomainsSeen, rep.SuspiciousCount, rep.Crawled, rep.Detected())
	families := make(map[string]int)
	for _, det := range rep.Detections {
		families[det.Family]++
	}
	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Slice(names, func(i, j int) bool { return families[names[i]] > families[names[j]] })
	for _, f := range names {
		fmt.Fprintf(w, "  %-18s %d sites\n", f, families[f])
	}
}
