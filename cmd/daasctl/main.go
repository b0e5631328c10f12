// Command daasctl runs the DaaS measurement pipeline: it builds the
// dataset by snowball sampling, validates it, clusters families, and
// prints the paper's tables.
//
// It can consume a remote chain served by chainsim, or generate a
// local world:
//
//	daasctl -rpc http://localhost:8545 study
//	daasctl -seed 1910 -scale 0.02 study
//	daasctl -scale 0.02 dataset -o dataset.json
//	daasctl -scale 0.02 validate
//
// It can also serve the screening engine over JSON-RPC, compiled from
// a fresh pipeline build or a precompiled snapshot:
//
//	daasctl -scale 0.02 -listen :8546 serve-screen
//	daasctl -snapshot screen.snap -listen :8546 serve-screen
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/daas"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/evmstatic"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rpc"
	"repro/internal/runreport"
	"repro/internal/worldgen"
)

func main() {
	var (
		rpcURL      = flag.String("rpc", "", "chainsim JSON-RPC endpoint (empty = generate a local world)")
		seed        = flag.Uint64("seed", 1910, "local world seed")
		scale       = flag.Float64("scale", 0.02, "local world scale")
		outPath     = flag.String("o", "", "output path for dataset export (dataset subcommand)")
		asCSV       = flag.Bool("csv", false, "export the dataset as CSV instead of JSON")
		verbose     = flag.Bool("v", false, "trace pipeline progress")
		concurrency = flag.Int("concurrency", 1, "parallel frontier scanners for the dataset build (output is identical at any setting)")
		cacheSize   = flag.Int("cache-size", 0, "entries in the sharded tx+receipt record store the study reads through: 0 holds the whole study (about 1.4 KB per record over RPC), N caps it at N (LRU)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address for the duration of the run")
		traceRun    = flag.Bool("trace", false, "record tracing spans and structured progress logs (stderr); prints span tree and metrics summary at the end")
		checkpoint  = flag.String("checkpoint", "", "persist dataset-build state to this file at iteration boundaries (resume with -resume)")
		resume      = flag.Bool("resume", false, "resume the dataset build from -checkpoint when the file exists; the result is byte-identical to an uninterrupted run")
		strict      = flag.Bool("strict", false, "exit non-zero when the integrity layer quarantined anything (the dataset itself is unaffected)")
		maxQuar     = flag.Int64("max-quarantine", 0, "abort the run after this many quarantined records (0 = unlimited)")
		runReport   = flag.String("run-report", "", "write the machine-readable run report (stage wall times, latency quantiles, metric snapshot, span tree, integrity manifest) to this JSON file")
		listenAddr  = flag.String("listen", ":8546", "serve-screen/radar: listen address for the JSON-RPC endpoint")
		domainsFile = flag.String("domains", "", "serve-screen/radar: newline-delimited confirmed phishing domains to compile into the snapshot")
		screenSnap  = flag.String("snapshot", "", "serve-screen: serve this precompiled screening snapshot (repro -screen-snapshot output) instead of building the pipeline")
		pollIvl     = flag.Duration("poll", time.Second, "radar: head poll interval")
		reorgWindow = flag.Int("reorg-window", 32, "radar: maximum reorg depth the daemon can roll back without a full resync")
		maxInFlight = flag.Int("max-in-flight", 0, "serve-screen/radar: concurrent requests admitted before shedding with -32005 (0 = default 256, negative = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", 0, "serve-screen/radar: per-request deadline (0 = default 10s, negative = none)")
		maxBody     = flag.Int64("max-body-bytes", 0, "serve-screen/radar: request body cap in bytes (0 = default 4MiB, negative = unlimited)")
		readyMaxLag = flag.Uint64("ready-max-lag", 0, "radar: /readyz reports not-ready when the cursor lags the head by more than this many blocks (0 = default 64)")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "study"
	}

	reg := obs.Default()
	var spans *obs.Recorder
	if *traceRun {
		spans = obs.NewRecorder()
	}
	var runRep *runreport.Builder
	if *runReport != "" {
		runRep = runreport.New("daasctl "+cmd, reg, spans)
		runRep.SetSeed(*seed)
	}
	// flushReport writes the artifact; called both on the normal path
	// and before strict-mode exits (os.Exit skips defers).
	flushReport := func() {
		if err := runRep.WriteFile(*runReport); err != nil {
			log.Fatal(err)
		}
	}
	defer flushReport()
	if *metricsAddr != "" {
		srv, addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		// Graceful drain: let an in-flight scrape of the final numbers
		// complete before the process goes away.
		defer func() {
			if err := obs.Shutdown(srv, 2*time.Second); err != nil {
				log.Print(err)
			}
		}()
		log.Printf("obs: serving http://%s/metrics (+ /debug/vars, /debug/pprof)", addr)
	}

	// inspect and diff work offline from exported files, and
	// serve-screen with a precompiled snapshot needs no chain either;
	// everything else does.
	var client *daas.Client
	var primaryTxs int
	// radar builds its own source stack (it needs the integrity layer's
	// per-tx pins for reorg rollback), so it skips the shared client too.
	offline := cmd == "inspect" || cmd == "diff" || cmd == "radar" || (cmd == "serve-screen" && *screenSnap != "")
	if !offline {
		var err error
		client, primaryTxs, err = buildClient(*rpcURL, *seed, *scale)
		if err != nil {
			log.Fatal(err)
		}
		client.Metrics = reg
		client.Spans = spans
		client.Concurrency = *concurrency
		client.CacheSize = *cacheSize
		client.CheckpointPath = *checkpoint
		client.Resume = *resume
		client.MaxQuarantine = *maxQuar
		if *verbose || *traceRun {
			client.Logger = obs.New(os.Stderr, obs.LevelDebug)
		}
		// Remote sources additionally report wire-level latency.
		if rc, ok := client.Source().(*rpc.Client); ok {
			rc.Metrics = reg
		}
	}
	defer func() {
		if *metricsAddr == "" && !*traceRun {
			return
		}
		fmt.Println("\n== Observability summary ==")
		if err := reg.WriteSummary(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if spans != nil {
			fmt.Println("\nrecorded spans:")
			if err := spans.WriteTree(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}()

	switch cmd {
	case "dataset":
		ds, err := client.BuildDataset()
		if err != nil {
			log.Fatalf("building dataset: %v", err)
		}
		report.Table1(os.Stdout, ds.SeedStats, ds.Stats())
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if *asCSV {
				err = ds.WriteCSV(f)
			} else {
				err = ds.WriteJSON(f)
			}
			if err != nil {
				log.Fatalf("exporting dataset: %v", err)
			}
			fmt.Printf("dataset written to %s\n", *outPath)
		}
		integrityEpilogue(client, nil, *strict, runRep, flushReport)

	case "validate":
		ds, err := client.BuildDataset()
		if err != nil {
			log.Fatalf("building dataset: %v", err)
		}
		rep, err := client.Validate(ds)
		if err != nil {
			log.Fatalf("validating: %v", err)
		}
		report.Validation(os.Stdout, rep)
		integrityEpilogue(client, nil, *strict, runRep, flushReport)
		if len(rep.FalsePositives) > 0 {
			flushReport()
			os.Exit(1)
		}

	case "study":
		study, err := client.StudyWith(daas.StudyOptions{PrimaryContractTxs: primaryTxs})
		if err != nil {
			log.Fatalf("study: %v", err)
		}
		printStudy(study)
		integrityEpilogue(client, study, *strict, runRep, flushReport)

	case "inspect":
		// Offline inspection of a previously exported dataset.
		if *outPath == "" {
			log.Fatal("inspect needs -o <dataset.json> (the file to read)")
		}
		ds, err := readDataset(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		report.Table1(os.Stdout, ds.SeedStats, ds.Stats())
		ratios := make(map[int64]int)
		for _, splits := range ds.Splits {
			seen := map[int64]bool{}
			for _, sp := range splits {
				if !seen[sp.RatioPM] {
					seen[sp.RatioPM] = true
					ratios[sp.RatioPM]++
				}
			}
		}
		fmt.Println()
		fmt.Println("operator-share ratios across profit-sharing transactions:")
		for _, pm := range core.DefaultRatiosPM {
			if n := ratios[pm]; n > 0 {
				fmt.Printf("  %5.1f%%  %6d txs (%.1f%%)\n",
					float64(pm)/10, n, 100*float64(n)/float64(len(ds.Splits)))
			}
		}

	case "diff":
		// Compare two exported dataset snapshots (monitoring workflow:
		// operators keep deploying new contracts, §8.1).
		oldPath, newPath := flag.Arg(1), flag.Arg(2)
		if oldPath == "" || newPath == "" {
			log.Fatal("diff needs two dataset.json paths: daasctl diff old.json new.json")
		}
		older, err := readDataset(oldPath)
		if err != nil {
			log.Fatal(err)
		}
		newer, err := readDataset(newPath)
		if err != nil {
			log.Fatal(err)
		}
		core.Diff(older, newer).Render(os.Stdout)

	case "disasm":
		// Decompile and disassemble a profit-sharing contract.
		addrHex := flag.Arg(1)
		if addrHex == "" {
			log.Fatal("disasm needs a contract address argument")
		}
		addr, err := ethtypes.HexToAddress(addrHex)
		if err != nil {
			log.Fatal(err)
		}
		code, read, _, err := contractCode(client, *rpcURL, addr)
		if err != nil {
			log.Fatal(err)
		}
		if len(code) == 0 {
			log.Fatalf("no code at %s", addr)
		}
		an := contracts.Decompile(code, addr, read)
		fmt.Printf("contract %s\n  ETH theft: %s\n  token theft: %s\n  operator share: %.1f%%\n\n",
			addr, an.ETHFunction, an.TokenFunction, float64(an.OperatorPerMille)/10)
		fmt.Print(contracts.FormatDisassembly(code))

	case "serve-screen":
		lim := rpc.Limits{MaxInFlight: *maxInFlight, RequestTimeout: *reqTimeout, MaxBodyBytes: *maxBody}
		if err := runServeScreen(client, reg, *listenAddr, *domainsFile, *screenSnap, lim); err != nil {
			log.Fatal(err)
		}

	case "radar":
		err := runRadar(reg, radarOptions{
			RPCURL:      *rpcURL,
			Seed:        *seed,
			Scale:       *scale,
			Listen:      *listenAddr,
			DomainsPath: *domainsFile,
			Checkpoint:  *checkpoint,
			Resume:      *resume,
			Poll:        *pollIvl,
			ReorgWindow: *reorgWindow,
			Verbose:     *verbose || *traceRun,
			Limits: rpc.Limits{
				MaxInFlight:    *maxInFlight,
				RequestTimeout: *reqTimeout,
				MaxBodyBytes:   *maxBody,
				ReadyMaxLag:    *readyMaxLag,
			},
		})
		if err != nil {
			log.Fatal(err)
		}

	case "analyze":
		// Analyze a contract: dynamic probing cross-validated against the
		// static pass, or the static pass alone with --static.
		if err := runAnalyze(client, *rpcURL, flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}

	default:
		log.Fatalf("unknown subcommand %q (want dataset, validate, study, inspect, diff, disasm, analyze, serve-screen, or radar)", cmd)
	}
}

// integrityEpilogue prints the completeness manifest for a chain-backed
// run and enforces -strict: any quarantined evidence turns the exit
// code non-zero, with a reason-coded summary on stderr. The exported
// dataset is never affected — strict mode only refuses to call a run
// with known gaps a success. The run report (if requested) is flushed
// before any exit so the failing run still leaves its artifact.
func integrityEpilogue(client *daas.Client, study *daas.Study, strict bool, runRep *runreport.Builder, flushReport func()) {
	m := client.Manifest(study)
	fmt.Println()
	report.RenderManifest(os.Stdout, m)
	runRep.SetManifest(m)
	if strict && !m.Clean() {
		flushReport()
		fmt.Fprintln(os.Stderr, "strict mode: the integrity layer quarantined records during this run")
		if err := client.Quarantine().Summarize(os.Stderr); err != nil {
			log.Fatal(err)
		}
		os.Exit(1)
	}
}

// runAnalyze implements the analyze subcommand.
func runAnalyze(client *daas.Client, rpcURL string, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	staticOnly := fs.Bool("static", false, "static analysis only: never execute the bytecode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrHex := fs.Arg(0)
	if addrHex == "" {
		return fmt.Errorf("analyze needs a contract address argument")
	}
	addr, err := ethtypes.HexToAddress(addrHex)
	if err != nil {
		return err
	}
	code, read, resolve, err := contractCode(client, rpcURL, addr)
	if err != nil {
		return err
	}
	if len(code) == 0 {
		return fmt.Errorf("no code at %s", addr)
	}

	// Resolve proxy chains so the fingerprint verdict judges the code
	// that actually runs, under this contract's storage.
	st := evmstatic.AnalyzeResolved(code, contracts.StaticStorage(addr, read), resolve)
	fmt.Printf("contract %s — static analysis\n%s", addr, st.Summary())
	if st.ProxyResolved {
		fmt.Printf("  proxy implementation: %s\n", st.ProxyImpl)
	}

	statFams := toSet(evmstatic.FamilyNames(st.Fingerprints))
	if *staticOnly {
		fmt.Println("\nfingerprint verdicts (static only)")
		for _, fam := range allFamilies() {
			fmt.Printf("  %-18s %s\n", fam, yesNo(statFams[fam]))
		}
		return nil
	}

	an := contracts.DecompileChecked(code, addr, read)
	fmt.Printf("\ndynamic probe\n  ETH theft: %s\n  token theft: %s\n  operator share: %.1f%%\n",
		an.ETHFunction, an.TokenFunction, float64(an.OperatorPerMille)/10)

	dynFams := toSet(contracts.ProbeFamilies(code, addr, read))
	fmt.Println("\nfingerprint verdicts")
	for _, fam := range allFamilies() {
		fmt.Printf("  %-18s static=%-3s dynamic=%s\n", fam, yesNo(statFams[fam]), yesNo(dynFams[fam]))
	}

	if len(an.Warnings) == 0 {
		fmt.Println("\nstatic and dynamic analyses agree")
		return nil
	}
	fmt.Println("\nstatic/dynamic disagreements:")
	for _, w := range an.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	return nil
}

// allFamilies lists the fingerprint families in display order.
func allFamilies() []string {
	return []string{
		string(evmstatic.FamilyApprovalPhish),
		string(evmstatic.FamilyProxy),
		string(evmstatic.FamilyPyramid),
	}
}

func toSet(list []string) map[string]bool {
	set := make(map[string]bool, len(list))
	for _, s := range list {
		set[s] = true
	}
	return set
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// readDataset loads an exported dataset snapshot.
func readDataset(path string) (*core.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadJSON(f)
}

// contractCode fetches bytecode, a storage reader, and a proxy-chain
// code resolver, locally or over RPC.
func contractCode(client *daas.Client, rpcURL string, addr ethtypes.Address) ([]byte, contracts.StorageReader, evmstatic.CodeResolver, error) {
	if rpcURL != "" {
		rc := rpc.NewClient(rpcURL)
		code, err := rc.Code(addr)
		if err != nil {
			return nil, nil, nil, err
		}
		read := func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
			v, err := rc.StorageAt(a, k)
			if err != nil {
				return ethtypes.Hash{}
			}
			return v
		}
		return code, read, rc.Code, nil
	}
	local, ok := client.Source().(core.LocalSource)
	if !ok {
		return nil, nil, nil, fmt.Errorf("disasm: no local chain available")
	}
	read := func(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
		return local.Chain.StorageAt(a, k)
	}
	resolve := func(a ethtypes.Address) ([]byte, error) {
		return local.Chain.CodeAt(a), nil
	}
	return local.Chain.CodeAt(addr), read, resolve, nil
}

// buildClient returns a remote client or generates a local world.
func buildClient(rpcURL string, seed uint64, scale float64) (*daas.Client, int, error) {
	primary := int(float64(measure.MinPrimaryTxs)*scale) + 1
	if rpcURL != "" {
		client, err := daas.Dial(rpcURL)
		if err != nil {
			return nil, 0, err
		}
		// Remote worlds carry their own token set; USD valuation of
		// ERC-20/NFT thefts then requires quote registration, which the
		// operator does via the oracle. ETH valuations work out of the
		// box.
		return client, measure.MinPrimaryTxs, nil
	}
	cfg := worldgen.DefaultConfig(seed)
	cfg.Scale = scale
	world, err := worldgen.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	return daas.New(core.LocalSource{Chain: world.Chain}, world.Labels, world.Oracle), primary, nil
}

func printStudy(study *daas.Study) {
	w := os.Stdout
	report.Table1(w, study.Dataset.SeedStats, study.Dataset.Stats())
	fmt.Fprintln(w)
	report.Totals(w, study.Totals)
	if study.Validation != nil {
		report.Validation(w, study.Validation)
	}
	fmt.Fprintln(w)
	report.Figure6(w, study.Victims)
	report.VictimFindings(w, study.Victims)
	fmt.Fprintln(w)
	report.OperatorFindings(w, study.Operators)
	fmt.Fprintln(w)
	report.Figure7(w, study.Affiliates)
	report.AffiliateFindings(w, study.Affiliates)
	fmt.Fprintln(w)
	report.RatioTable(w, study.Ratios)
	fmt.Fprintln(w)
	report.Table2(w, study.FamilyRows)
	fmt.Fprintf(w, "\nEtherscan label coverage of DaaS accounts: %.1f%% (§8.1)\n",
		study.EtherscanCoverage*100)
}
