// Command repro regenerates every table and figure of the paper and
// prints paper-reported versus measured values side by side. Its
// output is the source of EXPERIMENTS.md.
//
//	repro -scale 0.1 -sites 3300
//
// Scale 1.0 reproduces the full population (87,077 profit-sharing
// transactions, 32,819 phishing websites); smaller scales keep the
// same shapes with proportionally smaller counts.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http/httptest"
	"os"
	"time"

	"repro/daas"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/ethtypes"
	"repro/internal/flowgraph"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runreport"
	"repro/internal/screen"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
	"repro/internal/worldgen"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 1910, "world seed")
		scale       = flag.Float64("scale", 0.1, "on-chain population scale (1.0 = paper scale)")
		nSites      = flag.Int("sites", 3300, "phishing websites for the §8.2 experiment (paper: 32,819)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address for the duration of the run")
		traceRun    = flag.Bool("trace", false, "record tracing spans and structured progress logs (stderr); prints the span tree at the end")
		concurrency = flag.Int("concurrency", 1, "parallel frontier scanners for the dataset build (output is identical at any setting)")
		cacheSize   = flag.Int("cache-size", 0, "entries in the sharded tx+receipt record store the study reads through: 0 holds the whole study (about 1.4 KB per record over RPC), N caps it at N (LRU)")
		checkpoint  = flag.String("checkpoint", "", "persist dataset-build state to this file at iteration boundaries (resume with -resume)")
		resume      = flag.Bool("resume", false, "resume the dataset build from -checkpoint when the file exists; the result is byte-identical to an uninterrupted run")
		strict      = flag.Bool("strict", false, "exit non-zero when the integrity layer quarantined anything (the dataset itself is unaffected)")
		maxQuar     = flag.Int64("max-quarantine", 0, "abort the run after this many quarantined records (0 = unlimited)")
		runReport   = flag.String("run-report", "", "write the machine-readable run report (stage wall times, latency quantiles, metric snapshot, span tree, integrity manifest) to this JSON file")
		screenSnap  = flag.String("screen-snapshot", "", "compile the run's outputs (dataset accounts, family clusters, detected phishing domains) into a screening snapshot and write its deterministic bytes to this file (serve with daasctl serve-screen -snapshot)")
	)
	flag.Parse()
	w := os.Stdout

	reg := obs.Default()
	var spans *obs.Recorder
	var logger *slog.Logger
	if *traceRun {
		spans = obs.NewRecorder()
		logger = obs.New(os.Stderr, obs.LevelDebug)
	}
	var rep *runreport.Builder
	if *runReport != "" {
		rep = runreport.New("repro", reg, spans)
		rep.SetSeed(*seed)
	}
	if *metricsAddr != "" {
		srv, addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		// Graceful drain: a collector scraping the end-of-run numbers
		// gets to finish instead of a torn-down connection.
		defer func() {
			if err := obs.Shutdown(srv, 2*time.Second); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		fmt.Fprintf(w, "[obs] serving http://%s/metrics (+ /debug/vars, /debug/pprof)\n", addr)
	}

	fmt.Fprintf(w, "DaaS reproduction harness — seed %d, chain scale %.2f, %d phishing sites\n",
		*seed, *scale, *nSites)
	fmt.Fprintf(w, "Paper-scale counts shrink proportionally with scale; shapes (percentages,\nratios, orderings) are scale-invariant and are the comparison targets.\n\n")

	// ----- Chain-side experiments -----
	cfg := worldgen.DefaultConfig(*seed)
	cfg.Scale = *scale
	start := time.Now()
	endStage := rep.Stage("worldgen")
	world, err := worldgen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	endStage()
	fmt.Fprintf(w, "[world] %d transactions in %s\n\n", world.Chain.TxCount(), time.Since(start).Round(time.Millisecond))

	client := daas.New(core.LocalSource{Chain: world.Chain}, world.Labels, world.Oracle)
	client.Metrics = reg
	client.Logger = logger
	client.Spans = spans
	client.Concurrency = *concurrency
	client.CacheSize = *cacheSize
	client.CheckpointPath = *checkpoint
	client.Resume = *resume
	client.MaxQuarantine = *maxQuar
	start = time.Now()
	endStage = rep.Stage("study")
	study, err := client.StudyWith(daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: int(float64(measure.MinPrimaryTxs)**scale) + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	endStage()
	fmt.Fprintf(w, "[study] pipeline + analyses in %s\n\n", time.Since(start).Round(time.Millisecond))

	sectionTable1(w, study, *scale)
	sectionSec52(w, study, *scale)
	sectionFig6(w, study)
	sectionSec61(w, study)
	sectionSec62(w, study)
	sectionFig7(w, study)
	sectionSec63(w, study)
	sectionSec43(w, study)
	sectionTable2(w, study, *scale)
	sectionTable3(w, world, study)
	sectionSec81(w, study)
	sectionLaundering(w, world)
	endStage = rep.Stage("sitehunt")
	siteRep := sectionSec82AndTable4(w, *seed, *nSites, reg, logger)
	endStage()

	if *screenSnap != "" {
		snap := screen.Compile(study.Dataset, study.Families, siteRep.PhishingDomains())
		data, err := snap.MarshalBinary()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*screenSnap, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "[screen] snapshot (%d accounts, %d domains) written to %s\n",
			snap.Len(), snap.DomainCount(), *screenSnap)
	}

	if *metricsAddr != "" || *traceRun {
		sectionObservability(w, reg, spans)
	}

	manifest := client.Manifest(study)
	h(w, "Data Integrity")
	report.RenderManifest(w, manifest)
	fmt.Fprintln(w)
	rep.SetManifest(manifest)
	// Write the artifact before any strict-mode exit: os.Exit skips
	// defers, and a run that fails the gate is exactly the run whose
	// report matters most.
	if err := rep.WriteFile(*runReport); err != nil {
		log.Fatal(err)
	}
	if *runReport != "" {
		fmt.Fprintf(w, "[obs] run report written to %s\n", *runReport)
	}
	if *strict && !manifest.Clean() {
		fmt.Fprintln(os.Stderr, "strict mode: the integrity layer quarantined records during this run")
		if err := client.Quarantine().Summarize(os.Stderr); err != nil {
			log.Fatal(err)
		}
		os.Exit(1)
	}
}

// sectionObservability prints the end-of-run metrics summary — the
// same numbers /metrics serves — and the recorded span tree.
func sectionObservability(w *os.File, reg *obs.Registry, spans *obs.Recorder) {
	h(w, "Observability: End-of-run Metrics Summary")
	if err := reg.WriteSummary(w); err != nil {
		log.Fatal(err)
	}
	if spans != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "recorded spans:")
		if err := spans.WriteTree(w); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w)
}

// sectionLaundering quantifies the §8.1 cash-out observation with the
// fund-flow tracer: reported (labeled) accounts route through mixing
// services, unlabeled ones still deposit at exchanges.
func sectionLaundering(w *os.File, world *worldgen.World) {
	h(w, "§8.1 extension: Fund-flow Tracing of Cash-outs")
	tr := &flowgraph.Tracer{
		Source: core.LocalSource{Chain: world.Chain},
		Labels: world.Labels,
	}
	origins := make([]ethtypes.Address, 0, len(world.Truth.CashoutRoute))
	for origin := range world.Truth.CashoutRoute {
		origins = append(origins, origin)
	}
	rep, err := tr.Survey(origins)
	if err != nil {
		log.Fatal(err)
	}
	row(w, "cashed-out DaaS accounts traced", "—", fmt.Sprintf("%d", rep.Origins))
	row(w, "dominant sink: mixing service", "labeled accounts launder via mixers",
		fmt.Sprintf("%d accounts", rep.ViaMixer))
	row(w, "dominant sink: centralized exchange", "unlabeled accounts still reach CEXs",
		fmt.Sprintf("%d accounts", rep.ViaExchange))
	row(w, "labeled accounts routing via mixers", "\"unable to directly withdraw through CEXs\"",
		fmt.Sprintf("%.1f%%", 100*rep.LabeledViaMixerFraction))
	fmt.Fprintln(w)
}

func h(w *os.File, title string) { fmt.Fprintf(w, "== %s ==\n", title) }

func row(w *os.File, name, paper, measured string) {
	fmt.Fprintf(w, "  %-44s paper: %-16s measured: %s\n", name, paper, measured)
}

func sectionTable1(w *os.File, study *daas.Study, scale float64) {
	h(w, "Table 1: Dataset Collection Results")
	s, e := study.Dataset.SeedStats, study.Dataset.Stats()
	row(w, "profit-sharing contracts (seed → expanded)",
		fmt.Sprintf("391 → 1,910"), fmt.Sprintf("%d → %d", s.Contracts, e.Contracts))
	row(w, "operator accounts", "48 → 56", fmt.Sprintf("%d → %d", s.Operators, e.Operators))
	row(w, "affiliate accounts", "3,970 → 6,087", fmt.Sprintf("%d → %d", s.Affiliates, e.Affiliates))
	row(w, "profit-sharing transactions", "49,837 → 87,077", fmt.Sprintf("%d → %d", s.ProfitTxs, e.ProfitTxs))
	row(w, "expansion factor (contracts)", "4.9x",
		fmt.Sprintf("%.1fx", float64(e.Contracts)/float64(max(1, s.Contracts))))
	fmt.Fprintf(w, "  (counts scale with -scale=%.2f; the seed≪expanded shape is the target)\n\n", scale)
}

func sectionSec52(w *os.File, study *daas.Study, scale float64) {
	h(w, "§5.2: Totals and Validation")
	row(w, "operator profits", "$23.1M (at scale 1.0)", fmt.Sprintf("$%.1fM (scale %.2f)", study.Totals.OperatorUSD/1e6, scale))
	row(w, "affiliate profits", "$111.9M", fmt.Sprintf("$%.1fM", study.Totals.AffiliateUSD/1e6))
	row(w, "operator share of all profits", "17.1%",
		fmt.Sprintf("%.1f%%", 100*study.Totals.OperatorUSD/(study.Totals.OperatorUSD+study.Totals.AffiliateUSD)))
	row(w, "victim accounts", "76,582", fmt.Sprintf("%d", study.Totals.Victims))
	if study.Validation != nil {
		row(w, "validation false positives", "0",
			fmt.Sprintf("%d (reviewed %d txs, %.1f%%)", len(study.Validation.FalsePositives),
				study.Validation.TxReviewed, 100*study.Validation.ReviewedFraction))
	}
	fmt.Fprintln(w)
}

func sectionFig6(w *os.File, study *daas.Study) {
	h(w, "Figure 6: Victim Loss Distribution")
	paper := []string{"50.9%", "32.6%", "10.9%", "5.6%"}
	for i, b := range study.Victims.LossBuckets {
		row(w, b.Label, paper[i], fmt.Sprintf("%.1f%% (%d victims)", 100*b.Fraction, b.Count))
	}
	row(w, "losses below $1,000", "83.5%", fmt.Sprintf("%.1f%%", 100*study.Victims.Under1000Fraction))
	fmt.Fprintln(w)
}

func sectionSec61(w *os.File, study *daas.Study) {
	h(w, "§6.1: Victims")
	v := study.Victims
	row(w, "victims per day (average)", ">100", fmt.Sprintf("%.1f (%d days over 100)", v.AvgDailyVictims, v.DaysOver100))
	row(w, "multi-phished victims", "8,856 (11.6%)",
		fmt.Sprintf("%d (%.1f%%)", v.MultiPhished, 100*float64(v.MultiPhished)/float64(max(1, v.Victims))))
	row(w, "signed multiple phishing txs simultaneously", "78.1%", fmt.Sprintf("%.1f%%", 100*v.SimultaneousFraction))
	row(w, "never revoked approvals", "28.6%", fmt.Sprintf("%.1f%%", 100*v.UnrevokedFraction))
	fmt.Fprintln(w)
}

func sectionSec62(w *os.File, study *daas.Study) {
	h(w, "§6.2: Operators")
	o := study.Operators
	row(w, "top 25% of operators' profit share", "75.7% (14 accounts)",
		fmt.Sprintf("%.1f%% (%d accounts)", 100*o.TopQuartileShare, o.TopQuartileCount))
	row(w, "top operator account earnings", "$3.0M",
		fmt.Sprintf("$%.2fM", o.TopEarnerUSD/1e6))
	if o.InactiveCount > 0 {
		row(w, "inactive-operator lifecycles", "2 – 383 days",
			fmt.Sprintf("%.0f – %.0f days (%d inactive)", o.MinLifecycleDays, o.MaxLifecycleDays, o.InactiveCount))
	}
	fmt.Fprintln(w)
}

func sectionFig7(w *os.File, study *daas.Study) {
	h(w, "Figure 7: Affiliate Profit Distribution")
	a := study.Affiliates
	for _, b := range a.ProfitBuckets {
		row(w, b.Label, "—", fmt.Sprintf("%.1f%% (%d affiliates)", 100*b.Fraction, b.Count))
	}
	row(w, "affiliates earning over $1,000", "50.2%", fmt.Sprintf("%.1f%%", 100*a.Over1000Fraction))
	row(w, "affiliates earning over $10,000", "22.0%", fmt.Sprintf("%.1f%%", 100*a.Over10000Fraction))
	fmt.Fprintln(w)
}

func sectionSec63(w *os.File, study *daas.Study) {
	h(w, "§6.3: Affiliates")
	a := study.Affiliates
	row(w, "affiliates with >10 victims", "26.1%", fmt.Sprintf("%.1f%%", 100*a.Over10VictimsFraction))
	row(w, "affiliates tied to a single operator", "60.4%", fmt.Sprintf("%.1f%%", 100*a.SingleOperatorFraction))
	row(w, "affiliates tied to at most 3 operators", "90.2%", fmt.Sprintf("%.1f%%", 100*a.UpToThreeFraction))
	fmt.Fprintln(w)
}

func sectionSec43(w *os.File, study *daas.Study) {
	h(w, "§4.3: Profit-sharing Ratio Distribution")
	paper := map[int64]string{200: "46.0%", 150: "19.3%", 175: "9.2%"}
	for _, rs := range study.Ratios {
		ref := "—"
		if p, ok := paper[rs.PerMille]; ok {
			ref = p
		}
		row(w, fmt.Sprintf("operator share %.1f%%", float64(rs.PerMille)/10), ref,
			fmt.Sprintf("%.1f%% of txs", 100*rs.Fraction))
	}
	fmt.Fprintln(w)
}

func sectionTable2(w *os.File, study *daas.Study, scale float64) {
	h(w, "Table 2: DaaS Family Overview")
	paperVictims := map[string]string{
		"Angel Drainer": "37,755", "Inferno Drainer": "32,740", "Pink Drainer": "2,814",
		"Ace Drainer": "1,879", "Pussy Drainer": "537", "Venom Drainer": "491",
		"Medusa Drainer": "306", "0x0000b6": "43", "Spawn Drainer": "17",
	}
	paperProfit := map[string]string{
		"Angel Drainer": "$53.1M", "Inferno Drainer": "$59.0M", "Pink Drainer": "$14.7M",
		"Ace Drainer": "$3.1M", "Pussy Drainer": "$1.1M", "Venom Drainer": "$1.3M",
		"Medusa Drainer": "$2.5M", "0x0000b6": "$0.1M", "Spawn Drainer": "$0.01M",
	}
	row(w, "number of families", "9", fmt.Sprintf("%d", len(study.FamilyRows)))
	for _, fr := range study.FamilyRows {
		pv, pp := paperVictims[fr.Name], paperProfit[fr.Name]
		row(w, fr.Name,
			fmt.Sprintf("%s victims, %s", pv, pp),
			fmt.Sprintf("%d victims, $%.2fM (%d contracts, %d ops, %d affs)",
				fr.Victims, fr.ProfitUSD/1e6, fr.Contracts, fr.Operators, fr.Affiliates))
	}
	row(w, "top-3 families' profit share", "93.9%",
		fmt.Sprintf("%.1f%%", 100*measure.TopFamiliesProfitShare(study.FamilyRows, 3)))
	// §7.2 primary-contract lifecycles (paper: Angel 102.3, Inferno
	// 198.6, Pink 96.8 days; our primaries track their operators'
	// windows, so absolute spans run longer — the rotation-vs-primary
	// shape is the comparison).
	paperLife := map[string]string{
		"Angel Drainer": "102.3 days", "Inferno Drainer": "198.6 days", "Pink Drainer": "96.8 days",
	}
	for _, fr := range study.FamilyRows {
		if ref, ok := paperLife[fr.Name]; ok && fr.PrimaryLifecycleDays > 0 {
			row(w, fr.Name+" primary-contract lifecycle", ref,
				fmt.Sprintf("%.1f days", fr.PrimaryLifecycleDays))
		}
	}
	fmt.Fprintln(w)
	report.Table2(w, study.FamilyRows)
	fmt.Fprintln(w)
}

func sectionTable3(w *os.File, world *worldgen.World, study *daas.Study) {
	h(w, "Table 3: Contract Implementations of Dominant Families")
	paper := map[string]string{
		"Angel Drainer":   "payable Claim + multicall",
		"Inferno Drainer": "payable fallback + multicall",
		"Pink Drainer":    "payable networkMerge + multicall",
	}
	read := func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash { return world.Chain.StorageAt(a, k) }
	var rows []report.Table3Row
	for _, fam := range study.Families {
		if _, dominant := paper[fam.Name]; !dominant {
			continue
		}
		// Decompile the family's most active contract.
		var best ethtypes.Address
		bestTxs := -1
		for _, con := range fam.Contracts {
			if rec := study.Dataset.Contracts[con]; rec != nil && rec.TxCount > bestTxs {
				best, bestTxs = con, rec.TxCount
			}
		}
		an := contracts.Decompile(world.Chain.CodeAt(best), best, read)
		rows = append(rows, report.Table3Row{Family: fam.Name, Analysis: an})
		row(w, fam.Name, paper[fam.Name],
			fmt.Sprintf("%s + %s (operator %.1f%%)", an.ETHFunction, an.TokenFunction, float64(an.OperatorPerMille)/10))
	}
	fmt.Fprintln(w)
	report.Table3(w, rows)
	fmt.Fprintln(w)
}

func sectionSec81(w *os.File, study *daas.Study) {
	h(w, "§8.1: Etherscan Label Coverage")
	row(w, "DaaS accounts labeled on Etherscan", "10.8%", fmt.Sprintf("%.1f%%", 100*study.EtherscanCoverage))
	fmt.Fprintln(w)
}

func sectionSec82AndTable4(w *os.File, seed uint64, nSites int, reg *obs.Registry, logger *slog.Logger) *sitehunt.Report {
	h(w, "§8.2 + Table 4: Toolkit-based Website Detection")
	fleet := website.GenerateFleet(website.FleetConfig{
		Seed: seed, Phishing: nSites, Benign: nSites / 3, Bait: nSites / 20,
	})
	hostSrv := httptest.NewServer(website.NewHost(fleet))
	defer hostSrv.Close()
	ctLog, err := ct.NewLog()
	if err != nil {
		log.Fatal(err)
	}
	detectable := 0
	for _, s := range fleet {
		if !s.HTTPS {
			continue
		}
		if _, err := ctLog.Issue([]string{s.Domain}, s.Issued); err != nil {
			log.Fatal(err)
		}
		if s.Phishing {
			detectable++
		}
	}
	ctSrv := httptest.NewServer(ctLog.Handler())
	defer ctSrv.Close()

	ctClient := ct.NewClient(ctSrv.URL)
	ctClient.Metrics = reg
	detector := &sitehunt.Detector{
		CT:      ctClient,
		Crawler: crawler.New(hostSrv.URL),
		Corpus:  toolkit.BuildCorpus(seed, 867),
		Metrics: reg,
		Logger:  logger,
	}
	start := time.Now()
	rep, err := detector.Run()
	if err != nil {
		log.Fatal(err)
	}
	row(w, "toolkit fingerprints", "867", fmt.Sprintf("%d", detector.Corpus.Len()))
	row(w, "phishing websites detected", "32,819 (at paper scale)",
		fmt.Sprintf("%d of %d CT-visible (%.1f%%) in %s", rep.Detected(), detectable,
			100*float64(rep.Detected())/float64(max(1, detectable)), time.Since(start).Round(time.Millisecond)))
	falsePos := 0
	truth := make(map[string]bool)
	for _, s := range fleet {
		truth[s.Domain] = s.Phishing
	}
	for _, det := range rep.Detections {
		if !truth[det.Domain] {
			falsePos++
		}
	}
	row(w, "false positives", "0 reported", fmt.Sprintf("%d", falsePos))
	fmt.Fprintln(w)

	paperTLD := map[string]string{
		"com": "30.0%", "dev": "13.6%", "app": "11.6%", "xyz": "7.5%", "net": "5.6%",
		"org": "3.8%", "network": "2.4%", "io": "2.0%", "top": "1.6%", "online": "1.4%",
	}
	for i, share := range rep.TLDs {
		if i >= 10 {
			break
		}
		ref := "—"
		if p, ok := paperTLD[share.TLD]; ok {
			ref = p
		}
		row(w, "."+share.TLD, ref, fmt.Sprintf("%.1f%% (%d domains)", 100*share.Fraction, share.Count))
	}
	fmt.Fprintln(w)
	report.Table4(w, rep.TLDs, 10)
	return rep
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
