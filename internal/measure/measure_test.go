package measure_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/measure"
	"repro/internal/worldgen"
)

type fixture struct {
	world  *worldgen.World
	ds     *core.Dataset
	corpus *measure.Corpus
	fams   []*cluster.Family
}

var fix = func() *fixture {
	w, err := worldgen.Generate(worldgen.TestConfig(2025))
	if err != nil {
		panic(err)
	}
	p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	ds, err := p.Build()
	if err != nil {
		panic(err)
	}
	an := &measure.Analyzer{Source: core.LocalSource{Chain: w.Chain}, Oracle: w.Oracle}
	corpus, err := an.BuildCorpus(ds)
	if err != nil {
		panic(err)
	}
	cl := cluster.Clusterer{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	fams, err := cl.Cluster(ds)
	if err != nil {
		panic(err)
	}
	return &fixture{world: w, ds: ds, corpus: corpus, fams: fams}
}()

func TestTotalsMatchGroundTruth(t *testing.T) {
	tot := fix.corpus.Totals()
	// Planted totals.
	var plantedLoss float64
	for _, v := range fix.world.Truth.VictimLossUSD {
		plantedLoss += v
	}
	measured := tot.OperatorUSD + tot.AffiliateUSD
	if relDiff(measured, plantedLoss) > 0.08 {
		t.Errorf("measured profits $%.0f vs planted losses $%.0f", measured, plantedLoss)
	}
	// Victim counts line up.
	if relDiffInt(tot.Victims, len(fix.world.Truth.VictimLossUSD)) > 0.05 {
		t.Errorf("victims %d vs planted %d", tot.Victims, len(fix.world.Truth.VictimLossUSD))
	}
	// Operators take the minority share (ratio set tops out at 40%).
	if tot.OperatorUSD >= tot.AffiliateUSD {
		t.Errorf("operator share $%.0f not below affiliate share $%.0f", tot.OperatorUSD, tot.AffiliateUSD)
	}
}

func TestVictimReportShape(t *testing.T) {
	rep := fix.corpus.Victims()
	if rep.Victims == 0 {
		t.Fatal("no victims measured")
	}
	// Fig. 6 shape: strong majority below $1,000.
	if rep.Under1000Fraction < 0.6 {
		t.Errorf("under-$1k fraction %.2f, want > 0.6", rep.Under1000Fraction)
	}
	var total float64
	for _, b := range rep.LossBuckets {
		total += b.Fraction
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("bucket fractions sum to %f", total)
	}
	if rep.MultiPhished == 0 {
		t.Error("no multi-phished victims found")
	}
	if rep.SimultaneousFraction <= 0.3 {
		t.Errorf("simultaneous fraction %.2f too low (paper: 0.78)", rep.SimultaneousFraction)
	}
	if rep.UnrevokedFraction <= 0.05 || rep.UnrevokedFraction >= 0.9 {
		t.Errorf("unrevoked fraction %.2f implausible (paper: 0.29)", rep.UnrevokedFraction)
	}
	if rep.ActiveDays == 0 || rep.AvgDailyVictims <= 0 {
		t.Error("daily victim series empty")
	}
}

func TestOperatorReportConcentration(t *testing.T) {
	rep := fix.corpus.Operators(worldgen.DatasetEnd)
	if rep.Operators == 0 || rep.TotalUSD <= 0 {
		t.Fatal("empty operator report")
	}
	// Power-law weighting concentrates profits in the top quartile
	// (paper: 75.7%).
	if rep.TopQuartileShare < 0.5 {
		t.Errorf("top quartile share %.2f, want > 0.5", rep.TopQuartileShare)
	}
	if rep.TopEarnerUSD <= 0 {
		t.Error("no top earner")
	}
	if rep.InactiveCount > 0 && rep.MaxLifecycleDays < rep.MinLifecycleDays {
		t.Error("lifecycle bounds inverted")
	}
}

func TestAffiliateReport(t *testing.T) {
	rep := fix.corpus.Affiliates()
	if rep.Affiliates == 0 {
		t.Fatal("no affiliates")
	}
	if rep.SingleOperatorFraction < 0.4 {
		t.Errorf("single-operator fraction %.2f, want ≳ 0.6", rep.SingleOperatorFraction)
	}
	if rep.UpToThreeFraction < rep.SingleOperatorFraction {
		t.Error("≤3 fraction below single fraction")
	}
	if rep.UpToThreeFraction < 0.8 {
		t.Errorf("≤3 operators fraction %.2f, want ≳ 0.9", rep.UpToThreeFraction)
	}
	if rep.Over10VictimsFraction <= 0 || rep.Over10VictimsFraction >= 1 {
		t.Errorf("traffic fraction degenerate: %.2f", rep.Over10VictimsFraction)
	}
	var total float64
	for _, b := range rep.ProfitBuckets {
		total += b.Fraction
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("profit buckets sum to %f", total)
	}
}

func TestRatioDistribution(t *testing.T) {
	dist := fix.corpus.RatioDistribution()
	if len(dist) == 0 {
		t.Fatal("empty ratio distribution")
	}
	// 20% must dominate (paper: 46.0%).
	if dist[0].PerMille != 200 {
		t.Errorf("dominant ratio %d‰, want 200", dist[0].PerMille)
	}
	if dist[0].Fraction < 0.3 {
		t.Errorf("20%% share %.2f, want ≈ 0.46", dist[0].Fraction)
	}
	var total float64
	for _, rs := range dist {
		total += rs.Fraction
		if rs.PerMille < 100 || rs.PerMille > 400 {
			t.Errorf("unexpected ratio %d‰", rs.PerMille)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("ratio fractions sum to %f", total)
	}
}

func TestFamilyTable(t *testing.T) {
	rows := fix.corpus.FamilyTable(fix.fams, 2)
	if len(rows) != 9 {
		t.Fatalf("family rows = %d, want 9", len(rows))
	}
	// Rows are sorted by victims descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Victims > rows[i-1].Victims {
			t.Error("family rows not sorted by victims")
		}
	}
	// Angel and Inferno lead.
	if rows[0].Name != "Angel Drainer" && rows[0].Name != "Inferno Drainer" {
		t.Errorf("leading family %q", rows[0].Name)
	}
	// Top-3 profit concentration (paper: 93.9%).
	share := measure.TopFamiliesProfitShare(rows, 3)
	if share < 0.85 {
		t.Errorf("top-3 profit share %.3f, want ≳ 0.9", share)
	}
	for _, row := range rows {
		if row.Contracts == 0 || row.Operators == 0 {
			t.Errorf("family %q has empty populations: %+v", row.Name, row)
		}
		if row.End.Before(row.Start) {
			t.Errorf("family %q window inverted", row.Name)
		}
	}
}

func TestLabelCoverage(t *testing.T) {
	cov := fix.corpus.LabelCoverage(func(a ethtypes.Address) bool {
		return fix.world.Labels.Has(a, labels.SourceEtherscan)
	})
	if cov <= 0.01 || cov >= 0.9 {
		t.Errorf("etherscan coverage %.3f implausible (paper: 0.108)", cov)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func relDiffInt(a, b int) float64 { return relDiff(float64(a), float64(b)) }

// TestVictimsIsLinear guards Victims against a per-victim scan of the
// approvals: on two world sizes it reads each approval entry once,
// where a scan per multi-phished victim reads about one per entry and
// victim.
func TestVictimsIsLinear(t *testing.T) {
	for _, scale := range []float64{0.01, 0.03} {
		cfg := worldgen.TestConfig(2025)
		cfg.Scale = scale
		w, err := worldgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
		ds, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		an := &measure.Analyzer{Source: core.LocalSource{Chain: w.Chain}, Oracle: w.Oracle}
		corpus, err := an.BuildCorpus(ds)
		if err != nil {
			t.Fatal(err)
		}
		before := measure.ApprovalReads()
		rep := corpus.Victims()
		reads := measure.ApprovalReads() - before
		t.Logf("scale %.2f: %d approvals, %d multi-phished victims, %d reads", scale, len(corpus.Approvals), rep.MultiPhished, reads)
		if len(corpus.Approvals) == 0 || rep.MultiPhished < 2 {
			t.Fatalf("scale %.2f: world too small to tell (%d approvals, %d multi-phished victims)", scale, len(corpus.Approvals), rep.MultiPhished)
		}
		if reads > int64(len(corpus.Approvals)) {
			t.Errorf("scale %.2f: Victims read %d approval entries for %d recorded", scale, reads, len(corpus.Approvals))
		}
	}
}
