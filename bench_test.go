// Package repro benchmarks regenerate every table and figure of the
// paper (see DESIGN.md §4 for the experiment index) and report the
// headline shape metrics alongside timing. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale numbers live in EXPERIMENTS.md (produced by
// cmd/repro); these benches run at a reduced scale so the whole suite
// finishes in seconds while exercising identical code paths.
package repro

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/domains"
	"repro/internal/ethtypes"
	"repro/internal/measure"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
	"repro/internal/worldgen"
)

// benchScale keeps full-suite time reasonable while preserving shapes.
const benchScale = 0.02

var (
	fixOnce   sync.Once
	fixWorld  *worldgen.World
	fixDS     *core.Dataset
	fixCorpus *measure.Corpus
	fixFams   []*cluster.Family
)

func fixture(b *testing.B) (*worldgen.World, *core.Dataset, *measure.Corpus, []*cluster.Family) {
	b.Helper()
	fixOnce.Do(func() {
		cfg := worldgen.DefaultConfig(1910)
		cfg.Scale = benchScale
		w, err := worldgen.Generate(cfg)
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
		fixWorld, fixDS, fixCorpus, fixFams = w, ds, corpus, fams
	})
	return fixWorld, fixDS, fixCorpus, fixFams
}

// BenchmarkTable1_DatasetConstruction regenerates Table 1: the
// complete seed + snowball pipeline over the world.
func BenchmarkTable1_DatasetConstruction(b *testing.B) {
	w, _, _, _ := fixture(b)
	b.ReportAllocs()
	var stats core.Stats
	for i := 0; i < b.N; i++ {
		p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
		ds, err := p.Build()
		if err != nil {
			b.Fatal(err)
		}
		stats = ds.Stats()
	}
	b.ReportMetric(float64(stats.Contracts), "contracts")
	b.ReportMetric(float64(stats.ProfitTxs), "profit-txs")
}

// BenchmarkTable2_FamilyClustering regenerates Table 2: operator
// union-find plus contract/affiliate attribution and the family
// roll-up.
func BenchmarkTable2_FamilyClustering(b *testing.B) {
	w, ds, corpus, _ := fixture(b)
	b.ReportAllocs()
	var top3 float64
	for i := 0; i < b.N; i++ {
		cl := cluster.Clusterer{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
		fams, err := cl.Cluster(ds)
		if err != nil {
			b.Fatal(err)
		}
		rows := corpus.FamilyTable(fams, 2)
		top3 = measure.TopFamiliesProfitShare(rows, 3)
	}
	b.ReportMetric(top3*100, "top3-profit-%")
}

// BenchmarkTable3_ContractAnalysis regenerates Table 3: decompiling
// the dominant families' busiest profit-sharing contracts.
func BenchmarkTable3_ContractAnalysis(b *testing.B) {
	w, ds, _, fams := fixture(b)
	read := func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash { return w.Chain.StorageAt(a, k) }
	var targets []ethtypes.Address
	for _, fam := range fams[:3] {
		var best ethtypes.Address
		bestTxs := -1
		for _, con := range fam.Contracts {
			if rec := ds.Contracts[con]; rec != nil && rec.TxCount > bestTxs {
				best, bestTxs = con, rec.TxCount
			}
		}
		targets = append(targets, best)
	}
	b.ReportAllocs()
	b.ResetTimer()
	multicalls := 0
	for i := 0; i < b.N; i++ {
		multicalls = 0
		for _, addr := range targets {
			an := contracts.Decompile(w.Chain.CodeAt(addr), addr, read)
			if an.HasMulticall {
				multicalls++
			}
		}
	}
	b.ReportMetric(float64(multicalls), "multicall-contracts")
}

// BenchmarkTable4_TLDDistribution regenerates Table 4 over a 32,819
// domain corpus (the paper's detected-site count).
func BenchmarkTable4_TLDDistribution(b *testing.B) {
	gen := domains.NewGenerator(1910)
	corpus := make([]string, 32819)
	for i := range corpus {
		corpus[i] = gen.Phishing()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var comShare float64
	for i := 0; i < b.N; i++ {
		dist := domains.TLDDistribution(corpus)
		comShare = dist[0].Fraction
	}
	b.ReportMetric(comShare*100, "com-%")
}

// BenchmarkFigure4_ExampleTrace executes one complete profit-sharing
// transaction through the EVM (Figure 4's 27.1 ETH example shape).
func BenchmarkFigure4_ExampleTrace(b *testing.B) {
	operator := ethtypes.Addr("0x00006deacd9ad19db3d81f8410ea2bd5ea570000")
	affiliate := ethtypes.Addr("0x71f1917711917711917711917711917711164677")
	victim := ethtypes.Addr("0x1c71e00000000000000000000000000000000001")
	c := chain.New(time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC))
	c.Fund(victim, ethtypes.Ether(1_000_000_000))
	initcode, err := contracts.Deploy(contracts.Spec{
		Style: contracts.StyleClaim, Operator: operator,
		OperatorPerMille: 200, Authorized: operator,
	})
	if err != nil {
		b.Fatal(err)
	}
	_, rs := c.Mine(time.Now(), &chain.Transaction{From: victim, Data: initcode})
	addr := rs[0].ContractAddress
	data, err := contracts.ClaimData("Claim(address)", affiliate)
	if err != nil {
		b.Fatal(err)
	}
	cl := core.Classifier{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rs := c.Mine(time.Now(), &chain.Transaction{
			From: victim, To: &addr, Value: ethtypes.Ether(27), Data: data,
		})
		if !rs[0].Status {
			b.Fatal(rs[0].Err)
		}
		tx, _ := c.Transaction(rs[0].TxHash)
		if len(cl.Classify(tx, rs[0])) != 1 {
			b.Fatal("classification failed")
		}
	}
}

// BenchmarkFigure6_VictimLossDistribution regenerates Figure 6.
func BenchmarkFigure6_VictimLossDistribution(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var under float64
	for i := 0; i < b.N; i++ {
		rep := corpus.Victims()
		under = rep.Under1000Fraction
	}
	b.ReportMetric(under*100, "under1k-%")
}

// BenchmarkFigure7_AffiliateProfitDistribution regenerates Figure 7.
func BenchmarkFigure7_AffiliateProfitDistribution(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var over1k float64
	for i := 0; i < b.N; i++ {
		rep := corpus.Affiliates()
		over1k = rep.Over1000Fraction
	}
	b.ReportMetric(over1k*100, "over1k-%")
}

// BenchmarkSec43_RatioDistribution regenerates the §4.3 ratio mix.
func BenchmarkSec43_RatioDistribution(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var share20 float64
	for i := 0; i < b.N; i++ {
		dist := corpus.RatioDistribution()
		for _, rs := range dist {
			if rs.PerMille == 200 {
				share20 = rs.Fraction
			}
		}
	}
	b.ReportMetric(share20*100, "ratio20-%")
}

// BenchmarkSec52_TotalsAndValidation regenerates the §5.2 headline:
// totals plus the sampling re-validation.
func BenchmarkSec52_TotalsAndValidation(b *testing.B) {
	w, ds, corpus, _ := fixture(b)
	b.ReportAllocs()
	var fps int
	for i := 0; i < b.N; i++ {
		v := core.Validator{Source: core.LocalSource{Chain: w.Chain}, SamplePerAccount: 10}
		rep, err := v.Validate(ds)
		if err != nil {
			b.Fatal(err)
		}
		fps = len(rep.FalsePositives)
		_ = corpus.Totals()
	}
	b.ReportMetric(float64(fps), "false-positives")
}

// BenchmarkSec61_VictimAnalysis regenerates the §6.1 statistics.
func BenchmarkSec61_VictimAnalysis(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var sim float64
	for i := 0; i < b.N; i++ {
		rep := corpus.Victims()
		sim = rep.SimultaneousFraction
	}
	b.ReportMetric(sim*100, "simultaneous-%")
}

// BenchmarkSec62_OperatorAnalysis regenerates the §6.2 statistics.
func BenchmarkSec62_OperatorAnalysis(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var share float64
	for i := 0; i < b.N; i++ {
		rep := corpus.Operators(worldgen.DatasetEnd)
		share = rep.TopQuartileShare
	}
	b.ReportMetric(share*100, "topquartile-%")
}

// BenchmarkSec63_AffiliateAnalysis regenerates the §6.3 statistics.
func BenchmarkSec63_AffiliateAnalysis(b *testing.B) {
	_, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var single float64
	for i := 0; i < b.N; i++ {
		rep := corpus.Affiliates()
		single = rep.SingleOperatorFraction
	}
	b.ReportMetric(single*100, "single-op-%")
}

// BenchmarkSec81_LabelCoverage regenerates the §8.1 statistic.
func BenchmarkSec81_LabelCoverage(b *testing.B) {
	w, _, corpus, _ := fixture(b)
	b.ReportAllocs()
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = corpus.LabelCoverage(func(a ethtypes.Address) bool {
			return w.Labels.Has(a, "etherscan")
		})
	}
	b.ReportMetric(cov*100, "etherscan-%")
}

// BenchmarkSec82_WebsiteDetection regenerates the §8.2 pipeline over a
// live HTTP fleet: CT polling, domain filtering, crawling, fingerprint
// matching.
func BenchmarkSec82_WebsiteDetection(b *testing.B) {
	fleet := website.GenerateFleet(website.FleetConfig{
		Seed: 1910, Phishing: 150, Benign: 60, Bait: 15,
	})
	hostSrv := httptest.NewServer(website.NewHost(fleet))
	defer hostSrv.Close()
	log, err := ct.NewLog()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range fleet {
		if s.HTTPS {
			if _, err := log.Issue([]string{s.Domain}, s.Issued); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctSrv := httptest.NewServer(log.Handler())
	defer ctSrv.Close()
	corpus := toolkit.BuildCorpus(1910, 87)

	b.ReportAllocs()
	b.ResetTimer()
	var detected int
	for i := 0; i < b.N; i++ {
		det := &sitehunt.Detector{
			CT:      ct.NewClient(ctSrv.URL),
			Crawler: crawler.New(hostSrv.URL),
			Corpus:  corpus,
		}
		rep, err := det.Run()
		if err != nil {
			b.Fatal(err)
		}
		detected = rep.Detected()
	}
	b.ReportMetric(float64(detected), "sites-detected")
}

// ----- Ablation benches (DESIGN.md §5) -----

// BenchmarkAblation_ExpansionGate compares the connectivity-gated
// snowball against a global scan of all split-shaped contracts: the
// global scan admits the benign colliding splitters (false positives).
func BenchmarkAblation_ExpansionGate(b *testing.B) {
	w, _, _, _ := fixture(b)
	cl := core.Classifier{}
	b.ReportAllocs()
	var fps int
	for i := 0; i < b.N; i++ {
		// Global scan: classify the histories of ALL contracts with
		// split-shaped traffic, connectivity ignored.
		fps = 0
		for _, neg := range w.Truth.CollidingSplitters {
			for _, h := range w.Chain.TransactionsOf(neg) {
				tx, _ := w.Chain.Transaction(h)
				r, _ := w.Chain.Receipt(h)
				if len(cl.Classify(tx, r)) > 0 {
					fps++
					break
				}
			}
		}
	}
	b.ReportMetric(float64(fps), "global-scan-FPs")
	b.ReportMetric(0, "gated-FPs") // the gated pipeline admits none (see core tests)
}

// BenchmarkAblation_RatioTolerance sweeps the classifier's per-mille
// tolerance and reports recall over planted profit transactions.
func BenchmarkAblation_RatioTolerance(b *testing.B) {
	w, _, _, _ := fixture(b)
	for _, tol := range []int64{1, 5, 25} {
		b.Run(map[int64]string{1: "tol=0.1%", 5: "tol=0.5%", 25: "tol=2.5%"}[tol], func(b *testing.B) {
			cl := core.Classifier{TolerancePM: tol}
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				hits = 0
				for h := range w.Truth.ProfitTxs {
					tx, _ := w.Chain.Transaction(h)
					r, _ := w.Chain.Receipt(h)
					if len(cl.Classify(tx, r)) > 0 {
						hits++
					}
				}
			}
			b.ReportMetric(100*float64(hits)/float64(len(w.Truth.ProfitTxs)), "recall-%")
		})
	}
}

// BenchmarkAblation_FlowShape compares strict two-transfer groups with
// a relaxed shape that admits larger groups.
func BenchmarkAblation_FlowShape(b *testing.B) {
	w, _, _, _ := fixture(b)
	for _, maxGroup := range []int{2, 4} {
		name := "exactly-two"
		if maxGroup > 2 {
			name = "up-to-four"
		}
		b.Run(name, func(b *testing.B) {
			cl := core.Classifier{MaxGroupSize: maxGroup}
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				hits = 0
				for h := range w.Truth.ProfitTxs {
					tx, _ := w.Chain.Transaction(h)
					r, _ := w.Chain.Receipt(h)
					if len(cl.Classify(tx, r)) > 0 {
						hits++
					}
				}
			}
			b.ReportMetric(100*float64(hits)/float64(len(w.Truth.ProfitTxs)), "recall-%")
		})
	}
}

// BenchmarkAblation_ClusterEdges measures family counts with each edge
// type removed (paper §7.1 uses both).
func BenchmarkAblation_ClusterEdges(b *testing.B) {
	w, ds, _, _ := fixture(b)
	cases := []struct {
		name               string
		noDirect, noShared bool
	}{
		{"both-edges", false, false},
		{"no-shared-account", false, true},
		{"no-direct", true, false},
		{"no-edges", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var fams int
			for i := 0; i < b.N; i++ {
				cl := cluster.Clusterer{
					Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels,
					DisableDirectEdges: c.noDirect, DisableSharedAccountEdges: c.noShared,
				}
				out, err := cl.Cluster(ds)
				if err != nil {
					b.Fatal(err)
				}
				fams = len(out)
			}
			b.ReportMetric(float64(fams), "families")
		})
	}
}

// BenchmarkAblation_DomainSimilarity sweeps the Levenshtein threshold
// of the §8.2 domain filter and reports how many of a mixed corpus
// pass.
func BenchmarkAblation_DomainSimilarity(b *testing.B) {
	gen := domains.NewGenerator(7)
	corpus := make([]string, 0, 2000)
	for i := 0; i < 1000; i++ {
		corpus = append(corpus, gen.Phishing())
	}
	for i := 0; i < 1000; i++ {
		corpus = append(corpus, gen.Benign())
	}
	for _, threshold := range []float64{0.6, 0.8, 0.95} {
		b.Run(map[float64]string{0.6: "thr=0.6", 0.8: "thr=0.8", 0.95: "thr=0.95"}[threshold], func(b *testing.B) {
			b.ReportAllocs()
			var flagged int
			for i := 0; i < b.N; i++ {
				flagged = 0
				for _, d := range corpus {
					if _, ok := domains.Suspicious(d, threshold); ok {
						flagged++
					}
				}
			}
			b.ReportMetric(float64(flagged), "flagged")
		})
	}
}

// ----- Parallel snowball expansion -----

// latencySource injects a fixed per-call delay on the hot fetch
// methods, simulating a remote RPC endpoint. It deliberately does not
// implement BatchSource, so the benchmark isolates what the frontier
// worker pool alone buys.
type latencySource struct {
	src   core.LocalSource
	delay time.Duration
}

func (s latencySource) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	return s.src.TransactionsOf(a)
}

func (s latencySource) IsContract(a ethtypes.Address) (bool, error) {
	return s.src.IsContract(a)
}

func (s latencySource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	time.Sleep(s.delay)
	return s.src.Transaction(h)
}

func (s latencySource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	time.Sleep(s.delay)
	return s.src.Receipt(h)
}

// BenchmarkPipelineConcurrency sweeps the dataset build's worker count
// against a 1ms-latency chain source. The dataset is byte-identical at
// every setting, its 852 profit-sharing transactions included
// (TestConcurrentBuildIsByteIdentical in internal/core); only
// wall-clock moves.
func BenchmarkPipelineConcurrency(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TestConfig(1910))
	if err != nil {
		b.Fatal(err)
	}
	src := latencySource{src: core.LocalSource{Chain: w.Chain}, delay: time.Millisecond}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{Source: src, Labels: w.Labels, Concurrency: workers}
				if _, err := p.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
