package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
)

// Role names what a newly admitted account is to the dataset.
type Role string

// Roles reported to an OnAdmit hook.
const (
	RoleContract  Role = "contract"
	RoleOperator  Role = "operator"
	RoleAffiliate Role = "affiliate"
)

// Admission holds the dataset-mutation rules of §5.1 steps 2–4 and the
// state they mutate. Two drivers call it: the batch Pipeline, which
// reaches transactions by walking the histories of a frontier of
// accounts, and the radar, which reaches them in block order. The
// rules are: absorb a split-bearing contract, fold each of its split
// transactions into the contract's record, register the operators and
// affiliates those splits pay, and admit a contract reached from
// outside the dataset only through the expansion gate.
//
// An Admission is not safe for concurrent use, except that fetchAll
// and Classify may run from several goroutines at once.
type Admission struct {
	// DS is the dataset so far; Classified holds every transaction
	// already folded into it.
	DS         *Dataset
	Classified map[ethtypes.Hash]bool
	// Journal, when set, records the inverse of every mutation of DS and
	// Classified, so a head follower can undo the blocks a reorg
	// orphaned. Pipeline leaves it nil.
	Journal *Journal
	// OnFold, when set, is called with the splits of every transaction
	// Fold records, after they are appended to DS.Splits; the radar's
	// incremental clusterer tallies family votes from it.
	OnFold func(splits []Split)

	source     ChainSource
	labels     *labels.Directory
	classifier Classifier
	coverage   *Coverage
	onAdmit    OnAdmit
	// concurrency shapes fetchAll, as Pipeline's Concurrency documents.
	concurrency int

	m admissionMetrics
}

// OnAdmit is called for each contract, operator and affiliate new to
// the dataset, in admission order. An error aborts the absorb or fold
// that admitted the account.
type OnAdmit func(role Role, a ethtypes.Address, found Discovery) error

// admissionMetrics caches the admission's instruments; all are nil
// (no-op) without a registry.
type admissionMetrics struct {
	txFetched     *obs.Counter
	txClassified  *obs.Counter
	txQuarantined *obs.Counter
	splits        *obs.CounterVec
	contracts     *obs.CounterVec
	fetchBatch    *obs.Histogram
	fetchWorkers  *obs.Gauge
}

// NewAdmission returns an admission over an empty dataset, reading
// the chain through src and reporting its daas_pipeline_* fetch and
// admission counters to reg (nil disables them). cov, when set, books
// every fetched pair and, per absorbed contract, the records the
// integrity layer refused.
func NewAdmission(src ChainSource, lbls *labels.Directory, cls Classifier, cov *Coverage,
	reg *obs.Registry, onAdmit OnAdmit) *Admission {
	return &Admission{
		DS:         NewDataset(),
		Classified: make(map[ethtypes.Hash]bool),
		source:     src,
		labels:     lbls,
		classifier: cls,
		coverage:   cov,
		onAdmit:    onAdmit,
		m: admissionMetrics{
			txFetched:     reg.Counter("daas_pipeline_tx_fetched_total", "transactions (with receipts) fetched from the chain source"),
			txClassified:  reg.Counter("daas_pipeline_tx_classified_total", "transactions run through the profit-sharing classifier"),
			txQuarantined: reg.Counter("daas_pipeline_tx_quarantined_total", "transaction+receipt pairs dropped because the integrity layer quarantined a record"),
			splits:        reg.CounterVec("daas_classifier_splits_total", "profit-sharing splits matched per operator-share ratio (§4.3)", "ratio_pm"),
			contracts:     reg.CounterVec("daas_pipeline_contracts_admitted_total", "profit-sharing contracts admitted to the dataset", "discovery"),
			fetchBatch:    reg.Histogram("daas_pipeline_fetch_batch_size", "transactions per fetchAll batch", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
			fetchWorkers:  reg.Gauge("daas_pipeline_fetch_workers", "parallel fetch workers used by the most recent batch"),
		},
	}
}

// Absorb classifies the history of a candidate contract up to block
// horizon (inclusive); if any transaction splits profit through the
// contract, the contract and its split counterparties join the
// dataset. Hashes already classified are skipped: their splits are on
// record. It returns the hashes whose records could not be fetched
// (quarantined); they are neither classified nor marked, and they are
// booked against the contract in Coverage.
func (a *Admission) Absorb(ctx context.Context, addr ethtypes.Address, found Discovery, horizon uint64) ([]ethtypes.Hash, error) {
	if _, known := a.DS.Contracts[addr]; known {
		return nil, nil
	}
	hashes, err := a.source.TransactionsOf(addr)
	if err != nil {
		return nil, err
	}
	fresh := unclassified(hashes, a.Classified)
	pairs, err := a.fetchAll(ctx, fresh)
	if err != nil {
		return nil, err
	}
	var unfetched []ethtypes.Hash
	for i, h := range fresh {
		tx, r := pairs[i].tx, pairs[i].rec
		if tx == nil || r == nil {
			unfetched = append(unfetched, h)
			continue
		}
		if r.BlockNumber > horizon {
			continue
		}
		// Only splits invoked through this contract count toward it.
		var own []Split
		for _, sp := range a.Classify(tx, r) {
			if sp.Contract == addr {
				own = append(own, sp)
			}
		}
		if len(own) == 0 {
			continue
		}
		crec := a.DS.Contracts[addr]
		if crec == nil {
			crec = &ContractRecord{Address: addr, Found: found, FirstSeen: r.Timestamp, LastSeen: r.Timestamp}
			JournalKey(a.Journal, a.DS.Contracts, addr)
			a.DS.Contracts[addr] = crec
			a.m.contracts.With(string(found)).Inc()
			if found == DiscoverySeed {
				a.countSeed(&a.DS.SeedStats.Contracts)
				for _, l := range a.labels.Of(addr) {
					crec.Sources = append(crec.Sources, string(l.Source))
				}
			}
			if err := a.onAdmit(RoleContract, addr, found); err != nil {
				return nil, err
			}
		}
		if err := a.Fold(crec, h, own); err != nil {
			return nil, err
		}
	}
	a.coverage.NoteQuarantined(addr, int64(len(unfetched)))
	return unfetched, nil
}

// Fold records split transaction h of the known contract crec: the
// contract's activity window and transaction count, the splits, and
// the operators and affiliates they pay, tagged with the contract's
// discovery mode. The splits of one transaction share its timestamp.
// A transaction's first split in a seed contract counts toward the
// seed statistics.
func (a *Admission) Fold(crec *ContractRecord, h ethtypes.Hash, splits []Split) error {
	ts := splits[0].Time
	seeds := &a.DS.SeedStats
	if crec.Found == DiscoverySeed && len(a.DS.Splits[h]) == 0 {
		a.countSeed(&seeds.ProfitTxs)
	}
	JournalValue(a.Journal, crec)
	if ts.Before(crec.FirstSeen) {
		crec.FirstSeen = ts
	}
	if ts.After(crec.LastSeen) {
		crec.LastSeen = ts
	}
	crec.TxCount++
	JournalKey(a.Journal, a.Classified, h)
	a.Classified[h] = true
	for _, sp := range splits {
		JournalKey(a.Journal, a.DS.Splits, sp.TxHash)
		a.DS.Splits[sp.TxHash] = append(a.DS.Splits[sp.TxHash], sp)
		if a.touchAccount(a.DS.Operators, &seeds.Operators, sp.Operator, sp.Time, crec.Found) {
			if err := a.onAdmit(RoleOperator, sp.Operator, crec.Found); err != nil {
				return err
			}
		}
		if a.touchAccount(a.DS.Affiliates, &seeds.Affiliates, sp.Affiliate, sp.Time, crec.Found) {
			if err := a.onAdmit(RoleAffiliate, sp.Affiliate, crec.Found); err != nil {
				return err
			}
		}
	}
	if a.OnFold != nil {
		a.OnFold(splits)
	}
	return nil
}

// countSeed adds one to a seed statistics counter, journaled.
func (a *Admission) countSeed(n *int) {
	JournalValue(a.Journal, n)
	*n++
}

// touchAccount updates or creates an account record with a sighting,
// reporting whether the account is new to the map. A seed-phase
// sighting upgrades an expansion-discovered account, never the
// reverse: the batch build runs its whole seed phase first, so any
// party to a seed contract's split carries the seed tag there, and in
// block order the expansion sighting can come first. A record that
// becomes seed-tagged, new or upgraded, adds one to *seeds. Every
// change is journaled.
func (a *Admission) touchAccount(m map[ethtypes.Address]*AccountRecord, seeds *int, addr ethtypes.Address, t time.Time, found Discovery) bool {
	rec, ok := m[addr]
	if !ok {
		JournalKey(a.Journal, m, addr)
		m[addr] = &AccountRecord{Address: addr, Found: found, FirstSeen: t, LastSeen: t}
		if found == DiscoverySeed {
			a.countSeed(seeds)
		}
		return true
	}
	JournalValue(a.Journal, rec)
	if found == DiscoverySeed && rec.Found != DiscoverySeed {
		rec.Found = DiscoverySeed
		a.countSeed(seeds)
	}
	if t.Before(rec.FirstSeen) {
		rec.FirstSeen = t
	}
	if t.After(rec.LastSeen) {
		rec.LastSeen = t
	}
	return false
}

// Gate is the expansion gate of §5.1 step 4: a split transaction
// invoking a contract outside the dataset admits that contract only
// when the transaction was surfaced by a dataset operator or affiliate
// (a witness) and either pays a dataset account or is paid for by the
// witness. surfacedBy lists the accounts in whose history the
// transaction appears; only dataset operators and affiliates among
// them are witnesses. The batch walk passes the frontier account whose
// history it is scanning; the radar passes every party the
// transaction touches.
func (a *Admission) Gate(splits []Split, surfacedBy []ethtypes.Address) bool {
	witness := func(x ethtypes.Address) bool {
		if _, ok := a.DS.Operators[x]; ok {
			return true
		}
		_, ok := a.DS.Affiliates[x]
		return ok
	}
	if !slices.ContainsFunc(surfacedBy, witness) {
		return false
	}
	for _, sp := range splits {
		if a.DS.IsDaaSAccount(sp.Operator) || a.DS.IsDaaSAccount(sp.Affiliate) ||
			witness(sp.Payer) && slices.Contains(surfacedBy, sp.Payer) {
			return true
		}
	}
	return false
}

// unclassified returns the hashes not in classified, in order.
func unclassified(hashes []ethtypes.Hash, classified map[ethtypes.Hash]bool) []ethtypes.Hash {
	fresh := hashes[:0:0]
	for _, h := range hashes {
		if !classified[h] {
			fresh = append(fresh, h)
		}
	}
	return fresh
}

// Classify runs the classifier over one transaction, recording
// per-ratio match outcomes. Safe for concurrent use: the classifier is
// read-only and the instruments are atomic.
func (a *Admission) Classify(tx *chain.Transaction, r *chain.Receipt) []Split {
	a.m.txClassified.Inc()
	splits := a.classifier.Classify(tx, r)
	for _, sp := range splits {
		a.m.splits.With(strconv.FormatInt(sp.RatioPM, 10)).Inc()
	}
	return splits
}

// fetched pairs one transaction with its receipt.
type fetched struct {
	tx  *chain.Transaction
	rec *chain.Receipt
}

// defaultBatchSize caps one BatchSource call: larger batches mean
// fewer round trips but bigger responses.
const defaultBatchSize = 128

// workers is the fetch parallelism for n jobs: concurrency, at least
// one and at most n.
func (a *Admission) workers(n int) int {
	return max(1, min(a.concurrency, n))
}

// fetchAll retrieves transactions and receipts for the given hashes, in
// order. When Source can batch, the hashes collapse into a handful of
// round trips; otherwise up to Concurrency workers fetch in parallel.
// Outstanding work is cancelled as soon as any fetch fails.
func (a *Admission) fetchAll(ctx context.Context, hashes []ethtypes.Hash) ([]fetched, error) {
	out := make([]fetched, len(hashes))
	if len(hashes) == 0 {
		return out, nil
	}
	a.m.fetchBatch.Observe(float64(len(hashes)))
	if bs, ok := a.source.(BatchSource); ok {
		if err := a.fetchBatched(ctx, bs, hashes, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	a.m.fetchWorkers.Set(int64(a.workers(len(hashes))))
	err := runWorkers(ctx, len(hashes), a.workers(len(hashes)), func(i int) error {
		tx, rec, err := a.FetchOne(ctx, hashes[i])
		if err != nil {
			return err
		}
		out[i] = fetched{tx, rec}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fetchBatched fills out[i] for hashes[i] through a BatchSource,
// splitting the request into defaultBatchSize chunks fetched by up to
// Concurrency workers.
func (a *Admission) fetchBatched(ctx context.Context, bs BatchSource, hashes []ethtypes.Hash, out []fetched) error {
	size := defaultBatchSize
	chunks := (len(hashes) + size - 1) / size
	a.m.fetchWorkers.Set(int64(a.workers(chunks)))
	return runWorkers(ctx, chunks, a.workers(chunks), func(c int) error {
		lo := c * size
		hi := min(lo+size, len(hashes))
		chunk := hashes[lo:hi]
		txs, err := bs.BatchTransactions(chunk)
		if err != nil {
			return fmt.Errorf("core: batch-fetching %d transactions: %w", len(chunk), err)
		}
		recs, err := bs.BatchReceipts(chunk)
		if err != nil {
			return fmt.Errorf("core: batch-fetching %d receipts: %w", len(chunk), err)
		}
		if len(txs) != len(chunk) || len(recs) != len(chunk) {
			return fmt.Errorf("core: batch source returned %d txs / %d receipts for %d hashes", len(txs), len(recs), len(chunk))
		}
		// A nil batch entry is a quarantined record (the integrity
		// layer's degradation contract); the pair is dropped, not fatal.
		var admitted int64
		for i := range chunk {
			if txs[i] == nil || recs[i] == nil {
				a.m.txQuarantined.Inc()
				continue
			}
			out[lo+i] = fetched{txs[i], recs[i]}
			admitted++
		}
		a.m.txFetched.Add(uint64(admitted))
		a.coverage.NoteFetched(admitted)
		return nil
	})
}

// FetchOne retrieves one transaction+receipt pair, wrapping any failure
// with the hash and method so a failed worker is attributable. The
// context reaches the wire when Source implements ContextSource, so
// cancel-on-first-error aborts in-flight HTTP instead of waiting it out.
// A quarantined record (ErrQuarantined, or a nil entry replayed from a
// cache that stored a quarantined batch slot) degrades to a nil pair
// instead of failing; callers skip nil pairs and account for them.
func (a *Admission) FetchOne(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, *chain.Receipt, error) {
	tx, err := SourceTransaction(ctx, a.source, h)
	if err != nil {
		if errors.Is(err, ErrQuarantined) {
			a.m.txQuarantined.Inc()
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("core: fetching transaction %s: %w", h, err)
	}
	rec, err := SourceReceipt(ctx, a.source, h)
	if err != nil {
		if errors.Is(err, ErrQuarantined) {
			a.m.txQuarantined.Inc()
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("core: fetching receipt %s: %w", h, err)
	}
	if tx == nil || rec == nil {
		a.m.txQuarantined.Inc()
		return nil, nil, nil
	}
	a.m.txFetched.Inc()
	a.coverage.NoteFetched(1)
	return tx, rec, nil
}
