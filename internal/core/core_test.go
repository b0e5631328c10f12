package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/fetchcache"
	"repro/internal/worldgen"
)

// buildWorld generates the shared small-scale test world once.
var sharedWorld = func() *worldgen.World {
	w, err := worldgen.Generate(worldgen.TestConfig(1910))
	if err != nil {
		panic(err)
	}
	return w
}()

func buildDataset(t *testing.T, w *worldgen.World) *core.Dataset {
	t.Helper()
	p := &core.Pipeline{
		Source: core.LocalSource{Chain: w.Chain},
		Labels: w.Labels,
	}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPipelinePrecisionAndRecall(t *testing.T) {
	w := sharedWorld
	ds := buildDataset(t, w)

	// Precision: every dataset contract is a planted DaaS contract;
	// zero benign splitters admitted.
	for addr := range ds.Contracts {
		if _, ok := w.Truth.ContractFamily[addr]; !ok {
			t.Errorf("false positive contract %s", addr.Short())
		}
	}
	for _, neg := range w.Truth.CollidingSplitters {
		if _, ok := ds.Contracts[neg]; ok {
			t.Errorf("benign colliding splitter admitted: %s", neg.Short())
		}
	}
	// Precision on txs: no benign split tx recorded.
	for h := range ds.Splits {
		if w.Truth.BenignSplitTxs[h] {
			t.Errorf("benign splitter tx classified as profit-sharing")
		}
		if _, ok := w.Truth.ProfitTxs[h]; !ok {
			t.Errorf("tx %s in dataset but not planted", h)
		}
	}

	// Recall: the snowball should recover the overwhelming share of
	// planted contracts and profit txs (the paper's own coverage is
	// bounded by seed connectivity).
	stats := ds.Stats()
	plantedContracts := len(w.Truth.ContractFamily)
	if float64(stats.Contracts) < 0.9*float64(plantedContracts) {
		t.Errorf("contract recall %d/%d below 90%%", stats.Contracts, plantedContracts)
	}
	if float64(stats.ProfitTxs) < 0.9*float64(len(w.Truth.ProfitTxs)) {
		t.Errorf("tx recall %d/%d below 90%%", stats.ProfitTxs, len(w.Truth.ProfitTxs))
	}

	// Expansion grew the dataset beyond the seed (Table 1 shape).
	if stats.Contracts <= ds.SeedStats.Contracts {
		t.Errorf("expansion did not grow contracts: %d -> %d", ds.SeedStats.Contracts, stats.Contracts)
	}
	if stats.ProfitTxs <= ds.SeedStats.ProfitTxs {
		t.Errorf("expansion did not grow txs: %d -> %d", ds.SeedStats.ProfitTxs, stats.ProfitTxs)
	}
}

func TestPipelineOperatorAffiliateIdentification(t *testing.T) {
	w := sharedWorld
	ds := buildDataset(t, w)

	// Every recovered operator is a planted operator; same for
	// affiliates. (The split direction — smaller share to operator —
	// must sort the two roles correctly.)
	for addr := range ds.Operators {
		if _, ok := w.Truth.OperatorFamily[addr]; !ok {
			t.Errorf("recovered operator %s not planted as operator", addr.Short())
		}
	}
	misaff := 0
	for addr := range ds.Affiliates {
		if _, ok := w.Truth.AffiliateFamily[addr]; !ok {
			misaff++
		}
	}
	if misaff > 0 {
		t.Errorf("%d recovered affiliates not planted as affiliates", misaff)
	}
}

func TestClassifierOnPlantedTxs(t *testing.T) {
	w := sharedWorld
	cl := core.Classifier{}
	found := 0
	for h := range w.Truth.ProfitTxs {
		tx, err := w.Chain.Transaction(h)
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.Chain.Receipt(h)
		if err != nil {
			t.Fatal(err)
		}
		splits := cl.Classify(tx, r)
		if len(splits) == 0 {
			t.Errorf("planted profit tx %s not classified", h)
			continue
		}
		found++
		sp := splits[0]
		if sp.OperatorAmount.Cmp(sp.AffiliateAmount) > 0 {
			t.Errorf("operator share larger than affiliate share in %s", h)
		}
	}
	if found == 0 {
		t.Fatal("no planted txs classified")
	}
}

func TestClassifierRejectsNonSplits(t *testing.T) {
	cl := core.Classifier{}
	// Plain transfer: one transfer only.
	to := ethtypes.Addr("0x1111111111111111111111111111111111111111")
	tx := &chain.Transaction{From: ethtypes.Addr("0x2222222222222222222222222222222222222222"), To: &to}
	r := &chain.Receipt{Status: true, Transfers: []chain.Transfer{
		{Asset: chain.ETHAsset, From: tx.From, To: to, Amount: ethtypes.Ether(1)},
	}}
	if got := cl.Classify(tx, r); len(got) != 0 {
		t.Errorf("single transfer classified: %+v", got)
	}
	// Failed tx.
	r2 := &chain.Receipt{Status: false}
	if got := cl.Classify(tx, r2); len(got) != 0 {
		t.Error("failed tx classified")
	}
	// Two transfers at a non-drainer ratio (50/50).
	c := ethtypes.Addr("0x3333333333333333333333333333333333333333")
	a := ethtypes.Addr("0x4444444444444444444444444444444444444444")
	b := ethtypes.Addr("0x5555555555555555555555555555555555555555")
	r3 := &chain.Receipt{Status: true, Transfers: []chain.Transfer{
		{Asset: chain.ETHAsset, From: c, To: a, Amount: ethtypes.Ether(5), Depth: 1},
		{Asset: chain.ETHAsset, From: c, To: b, Amount: ethtypes.Ether(5), Depth: 1},
	}}
	txc := &chain.Transaction{From: tx.From, To: &c}
	if got := cl.Classify(txc, r3); len(got) != 0 {
		t.Errorf("50/50 split classified: %+v", got)
	}
	// Same recipient twice is not an operator/affiliate split.
	r4 := &chain.Receipt{Status: true, Transfers: []chain.Transfer{
		{Asset: chain.ETHAsset, From: c, To: a, Amount: ethtypes.Ether(2), Depth: 1},
		{Asset: chain.ETHAsset, From: c, To: a, Amount: ethtypes.Ether(8), Depth: 1},
	}}
	if got := cl.Classify(txc, r4); len(got) != 0 {
		t.Errorf("self-pair classified: %+v", got)
	}
	// ERC-721 two-transfer flows are never ratio splits.
	nft := chain.Asset{Kind: chain.AssetERC721, Token: a, TokenID: 1}
	r5 := &chain.Receipt{Status: true, Transfers: []chain.Transfer{
		{Asset: nft, From: c, To: a, Amount: ethtypes.NewWei(1), Depth: 1},
		{Asset: nft, From: c, To: b, Amount: ethtypes.NewWei(1), Depth: 1},
	}}
	if got := cl.Classify(txc, r5); len(got) != 0 {
		t.Errorf("NFT pair classified: %+v", got)
	}
}

func TestClassifierRatioMatch(t *testing.T) {
	cl := core.Classifier{}
	c := ethtypes.Addr("0x3333333333333333333333333333333333333333")
	op := ethtypes.Addr("0x4444444444444444444444444444444444444444")
	aff := ethtypes.Addr("0x5555555555555555555555555555555555555555")
	victim := ethtypes.Addr("0x6666666666666666666666666666666666666666")

	mk := func(opAmt, affAmt ethtypes.Wei) []core.Split {
		tx := &chain.Transaction{From: victim, To: &c, Value: opAmt.Add(affAmt)}
		r := &chain.Receipt{Status: true, TxHash: ethtypes.Hash{9}, Timestamp: time.Now(), Transfers: []chain.Transfer{
			{Asset: chain.ETHAsset, From: victim, To: c, Amount: opAmt.Add(affAmt)},
			{Asset: chain.ETHAsset, From: c, To: op, Amount: opAmt, Depth: 1},
			{Asset: chain.ETHAsset, From: c, To: aff, Amount: affAmt, Depth: 1},
		}}
		return cl.Classify(tx, r)
	}
	// 17.5 / 82.5 matches.
	v := ethtypes.Ether(40)
	got := mk(v.MulDiv(175, 1000), v.MulDiv(825, 1000))
	if len(got) != 1 {
		t.Fatalf("17.5%% split not classified")
	}
	if got[0].RatioPM != 175 || got[0].Operator != op || got[0].Affiliate != aff || got[0].Payer != c {
		t.Errorf("split fields wrong: %+v", got[0])
	}
	// Dust from integer division still matches via tolerance.
	odd := ethtypes.NewWei(1_000_000_007)
	opAmt := odd.MulDiv(200, 1000)
	got = mk(opAmt, odd.Sub(opAmt))
	if len(got) != 1 || got[0].RatioPM != 200 {
		t.Errorf("dusty 20%% split not classified: %+v", got)
	}
	// 23% does not match any known ratio.
	got = mk(v.MulDiv(230, 1000), v.MulDiv(770, 1000))
	if len(got) != 0 {
		t.Errorf("23%% split classified: %+v", got)
	}
}

func TestValidationFindsNoFalsePositives(t *testing.T) {
	w := sharedWorld
	ds := buildDataset(t, w)
	v := core.Validator{Source: core.LocalSource{Chain: w.Chain}, SamplePerAccount: 10}
	report, err := v.Validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.FalsePositives) != 0 {
		t.Errorf("validation flagged %d false positives", len(report.FalsePositives))
	}
	if report.TxReviewed == 0 || report.ReviewedFraction <= 0 {
		t.Error("validation reviewed nothing")
	}
	if report.ContractsReviewed != len(ds.Contracts) {
		t.Errorf("reviewed %d contracts of %d", report.ContractsReviewed, len(ds.Contracts))
	}
}

func TestExpansionGateAblation(t *testing.T) {
	w := sharedWorld
	// With the gate disabled AND a global contract scan, the colliding
	// benign splitters are misclassified — demonstrating why the
	// paper's expansion follows connectivity. We emulate the global
	// scan by feeding splitter addresses as extra "reports".
	cl := core.Classifier{}
	caught := 0
	for _, neg := range w.Truth.CollidingSplitters {
		for _, h := range w.Chain.TransactionsOf(neg) {
			tx, _ := w.Chain.Transaction(h)
			r, _ := w.Chain.Receipt(h)
			if len(cl.Classify(tx, r)) > 0 {
				caught++
				break
			}
		}
	}
	if caught == 0 {
		t.Fatal("colliding splitters produce no classifier hits; negatives are toothless")
	}
	// The real pipeline, however, never admits them (verified in
	// TestPipelinePrecisionAndRecall).
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	w := sharedWorld
	ds := buildDataset(t, w)
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != ds.Stats() {
		t.Errorf("round trip stats: %+v vs %+v", back.Stats(), ds.Stats())
	}
	if back.SeedStats != ds.SeedStats {
		t.Errorf("seed stats: %+v vs %+v", back.SeedStats, ds.SeedStats)
	}
	// Spot-check one split.
	for h, splits := range ds.Splits {
		got, ok := back.Splits[h]
		if !ok || len(got) != len(splits) {
			t.Fatalf("split tx %s lost in round trip", h)
		}
		if got[0].Operator != splits[0].Operator || got[0].RatioPM != splits[0].RatioPM {
			t.Fatalf("split fields changed: %+v vs %+v", got[0], splits[0])
		}
		break
	}
}

func TestPipelineDeterminism(t *testing.T) {
	w := sharedWorld
	ds1 := buildDataset(t, w)
	ds2 := buildDataset(t, w)
	if ds1.Stats() != ds2.Stats() || ds1.SeedStats != ds2.SeedStats {
		t.Errorf("pipeline runs differ: %+v vs %+v", ds1.Stats(), ds2.Stats())
	}
}

func TestDatasetCSVExport(t *testing.T) {
	ds := buildDataset(t, sharedWorld)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sections := strings.Split(out, "\n\n")
	if len(sections) != 3 {
		t.Fatalf("CSV has %d sections, want 3", len(sections))
	}
	if !strings.HasPrefix(sections[0], "role,address,found_via") {
		t.Error("accounts header missing")
	}
	if !strings.HasPrefix(sections[1], "contract,found_via,sources") {
		t.Error("contracts header missing")
	}
	if !strings.HasPrefix(sections[2], "tx,time,contract") {
		t.Error("splits header missing")
	}
	// Row counts line up with the dataset (header + one line per row).
	countLines := func(section string) int {
		return len(strings.Split(strings.TrimSpace(section), "\n"))
	}
	if got, want := countLines(sections[0]), len(ds.Operators)+len(ds.Affiliates)+1; got != want {
		t.Errorf("account rows = %d, want %d", got, want)
	}
	if got, want := countLines(sections[1]), len(ds.Contracts)+1; got != want {
		t.Errorf("contract rows = %d, want %d", got, want)
	}
}

// exportJSON builds a dataset at the given concurrency (optionally
// behind a fetch cache) and returns its canonical JSON export.
func exportJSON(t *testing.T, w *worldgen.World, workers, cacheSize int) []byte {
	t.Helper()
	var src core.ChainSource = core.LocalSource{Chain: w.Chain}
	if cacheSize > 0 {
		src = core.NewTop(fetchcache.NewCache(core.NewLeaf(src, nil), cacheSize, nil))
	}
	p := &core.Pipeline{
		Source:      src,
		Labels:      w.Labels,
		Concurrency: workers,
	}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentBuildIsByteIdentical is the tentpole guarantee: the
// parallel frontier scanner is speculative-but-deterministic, so the
// exported dataset must match the serial build byte for byte — with
// and without the fetch cache interposed. The serial build's
// profit-sharing count is pinned too: it is this world's analogue of
// the paper's 87,077 (§5.1), and BenchmarkPipelineConcurrency times
// the same build at 1, 4 and 16 workers.
func TestConcurrentBuildIsByteIdentical(t *testing.T) {
	w := sharedWorld
	serial := exportJSON(t, w, 1, 0)
	if len(serial) == 0 {
		t.Fatal("empty serial export")
	}
	if got, want := buildDataset(t, w).Stats().ProfitTxs, 852; got != want {
		t.Errorf("serial build found %d profit-sharing transactions, want %d", got, want)
	}
	for _, tc := range []struct {
		name             string
		workers, cacheSz int
	}{
		{"workers=8", 8, 0},
		{"workers=8+cache", 8, 1 << 12},
		{"workers=3", 3, 0},
		{"workers=1+cache", 1, 1 << 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := exportJSON(t, w, tc.workers, tc.cacheSz)
			if !bytes.Equal(got, serial) {
				t.Errorf("export differs from serial build (%d vs %d bytes)", len(got), len(serial))
			}
		})
	}
}

// quarantineInAbsorb serves a chain but reports one transaction as
// quarantined on its first fetch after its contract's history is
// listed, i.e. inside the contract's absorb, and serves it on every
// later fetch: the integrity layer refusing a record that arrives
// corrupt once and accepting it on a later read. The build is serial,
// so no locking is needed.
type quarantineInAbsorb struct {
	core.ChainSource
	contract ethtypes.Address
	hash     ethtypes.Hash

	armed, refused bool
	// refetches counts fetches of hash after the refusal.
	refetches int
}

func (q *quarantineInAbsorb) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	if a == q.contract && !q.refused {
		q.armed = true
	}
	return q.ChainSource.TransactionsOf(a)
}

func (q *quarantineInAbsorb) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	if h == q.hash {
		switch {
		case q.refused:
			q.refetches++
		case q.armed:
			q.refused = true
			return nil, fmt.Errorf("test: %s: %w", h, core.ErrQuarantined)
		}
	}
	return q.ChainSource.Transaction(h)
}

// TestQuarantinedAbsorbRecordFoldedByLaterScan reaches the batch
// known-contract path (mergeScan into Admission.Fold): a split
// transaction is quarantined while its contract is absorbed, and a
// later frontier scan fetches it and folds it into the now-known
// contract. The export must equal the fault-free build's, seed
// statistics included, for an expansion contract and for a seed
// contract alike.
func TestQuarantinedAbsorbRecordFoldedByLaterScan(t *testing.T) {
	w := sharedWorld
	clean := exportJSON(t, w, 1, 0)
	ds := buildDataset(t, w)
	for _, found := range []core.Discovery{core.DiscoveryExpansion, core.DiscoverySeed} {
		t.Run(string(found), func(t *testing.T) {
			hashes := make([]ethtypes.Hash, 0, len(ds.Splits))
			for h, splits := range ds.Splits {
				if ds.Contracts[splits[0].Contract].Found == found {
					hashes = append(hashes, h)
				}
			}
			sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i][:], hashes[j][:]) < 0 })
			// The first split whose refused record a later scan re-reads;
			// a record no later scan reaches stays quarantined, which is
			// the coverage ledger's business, not this path's.
			for _, h := range hashes {
				src := &quarantineInAbsorb{ChainSource: core.LocalSource{Chain: w.Chain}, contract: ds.Splits[h][0].Contract, hash: h}
				got, err := (&core.Pipeline{Source: src, Labels: w.Labels}).Build()
				if err != nil {
					t.Fatal(err)
				}
				if !src.refused {
					t.Fatalf("split %s was never fetched inside its contract's absorb", h)
				}
				if src.refetches == 0 {
					continue
				}
				if got.SeedStats != ds.SeedStats {
					t.Fatalf("split %s quarantined in its absorb and folded by a later scan: seed statistics %+v, fault-free %+v",
						h, got.SeedStats, ds.SeedStats)
				}
				var buf bytes.Buffer
				if err := got.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), clean) {
					t.Fatalf("split %s quarantined in its absorb and folded by a later scan: export differs from the fault-free build", h)
				}
				return
			}
			t.Fatalf("no later scan re-read any of %d %s splits quarantined in an absorb; the known-contract path went untested", len(hashes), found)
		})
	}
}
