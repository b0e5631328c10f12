package core

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"sort"
	"sync"

	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
)

// Pipeline runs the four-step dataset construction of §5.1.
type Pipeline struct {
	// Source is the chain; Build reads it through LayerOf(Source).
	Source ChainSource
	Labels *labels.Directory
	// Concurrency sets the number of frontier accounts scanned in
	// parallel and the number of parallel transaction+receipt fetches
	// per scan. It matters when Source is a remote JSON-RPC endpoint
	// (each fetch is a network round trip); 0 or 1 keeps everything
	// sequential. The dataset is byte-identical either way: scans run
	// speculatively, but their results are merged by a single goroutine
	// in deterministic frontier order, so admission decisions and the
	// expansion gate see exactly the serial pipeline's state.
	Concurrency int
	// CheckpointPath, when set, makes Build serialize its state
	// (dataset + expansion frontier) atomically to this file after the
	// seed phase and after every expansion iteration, so an interrupted
	// multi-hour build — crash, SIGKILL, fatal source fault — can
	// continue with Resume instead of starting over. A resumed build
	// produces a byte-identical dataset.
	CheckpointPath string
	// Resume makes Build restore CheckpointPath (when the file exists)
	// and continue from it instead of rebuilding from the seed. With no
	// checkpoint file present the build runs fresh.
	Resume bool
	// Quarantine, when set, is the integrity layer's store behind
	// Source. The pipeline itself never writes to it; holding the
	// reference lets checkpoints snapshot and restore it, so a resumed
	// build keeps the proven-rotten set instead of re-litigating it.
	Quarantine QuarantineState
	// Coverage is the completeness ledger Build maintains (auto-created
	// when nil): admitted pairs, permanently quarantined records, and
	// which accounts were only partially scanned. A degraded account is
	// still scanned and NOT fixpointed away silently — its gap count is
	// what the report manifest surfaces.
	Coverage *Coverage
	// Logger receives structured progress events (nil discards them).
	Logger *slog.Logger
	// Metrics, when set, receives per-stage counters, gauges, and
	// histograms (see the README's Observability section for names).
	Metrics *obs.Registry
	// Spans, when set, records hierarchical tracing spans for the build
	// and each expansion iteration.
	Spans *obs.Recorder

	pm pipelineMetrics
}

// pipelineMetrics caches the pipeline's instruments so hot loops touch
// only atomics. All fields are nil (no-op) when Metrics is unset.
type pipelineMetrics struct {
	iterations      *obs.Counter
	frontier        *obs.Gauge
	accountsScanned *obs.Counter
	scanWorkers     *obs.Gauge
	ckptWrites      *obs.Counter
	ckptBytes       *obs.Gauge
	ckptResumes     *obs.Counter
	ckptLastIter    *obs.Gauge
	degradedAccts   *obs.Gauge
}

func newPipelineMetrics(r *obs.Registry) pipelineMetrics {
	return pipelineMetrics{
		iterations:      r.Counter("daas_pipeline_iterations_total", "expansion iterations executed (§5.1 step 4)"),
		frontier:        r.Gauge("daas_pipeline_frontier_accounts", "accounts in the most recent expansion frontier"),
		accountsScanned: r.Counter("daas_pipeline_accounts_scanned_total", "operator/affiliate accounts whose histories were walked"),
		scanWorkers:     r.Gauge("daas_pipeline_scan_workers", "parallel frontier scanners used by the most recent expansion iteration"),
		ckptWrites:      r.Counter("daas_checkpoint_writes_total", "pipeline checkpoints written to disk"),
		ckptBytes:       r.Gauge("daas_checkpoint_bytes", "size of the most recent checkpoint file"),
		ckptResumes:     r.Counter("daas_checkpoint_resumes_total", "builds resumed from an on-disk checkpoint"),
		ckptLastIter:    r.Gauge("daas_checkpoint_last_iteration", "expansion iterations completed at the most recent checkpoint"),
		degradedAccts:   r.Gauge("daas_pipeline_degraded_accounts", "accounts whose histories are partially scanned due to quarantined records"),
	}
}

// runWorkers executes fn over n indexed jobs with up to workers
// goroutines, cancelling the remaining jobs as soon as one fails. It
// returns the first error in completion order (the caller's result
// slices keep per-index determinism regardless).
func runWorkers(ctx context.Context, n, workers int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobs := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// frontierTracker records operator/affiliate accounts added to the
// dataset since the last frontier was computed, replacing the
// per-iteration full re-sort of both account maps with an incremental
// delta. The ordering contract matches the historical computation
// exactly: new operators sorted by address, then new affiliates sorted
// by address (an address added in both roles appears twice, as it did
// when both sorted maps were walked).
type frontierTracker struct {
	ops  map[ethtypes.Address]bool
	affs map[ethtypes.Address]bool
}

func newFrontierTracker() *frontierTracker {
	return &frontierTracker{
		ops:  make(map[ethtypes.Address]bool),
		affs: make(map[ethtypes.Address]bool),
	}
}

// next drains the pending accounts into the next frontier, dropping any
// already scanned (an account scanned under one role is never
// re-scanned under another, mirroring the address-keyed scanned set).
func (t *frontierTracker) next(scanned map[ethtypes.Address]bool) []ethtypes.Address {
	out := make([]ethtypes.Address, 0, len(t.ops)+len(t.affs))
	out = appendSortedUnscanned(out, t.ops, scanned)
	out = appendSortedUnscanned(out, t.affs, scanned)
	t.ops = make(map[ethtypes.Address]bool)
	t.affs = make(map[ethtypes.Address]bool)
	return out
}

// admitted is the pipeline's OnAdmit hook: new operators and
// affiliates join the next frontier.
func (t *frontierTracker) admitted(role Role, a ethtypes.Address, _ Discovery) error {
	switch role {
	case RoleOperator:
		t.ops[a] = true
	case RoleAffiliate:
		t.affs[a] = true
	}
	return nil
}

func appendSortedUnscanned(dst []ethtypes.Address, pending, scanned map[ethtypes.Address]bool) []ethtypes.Address {
	start := len(dst)
	for a := range pending {
		if !scanned[a] {
			dst = append(dst, a)
		}
	}
	fresh := dst[start:]
	sort.Slice(fresh, func(i, j int) bool { return addrLess(fresh[i], fresh[j]) })
	return dst
}

// scanOutcome is one frontier account's speculative scan: its
// unclassified history and the classifier's verdict per hash. Scans
// touch no shared state, so any number can run concurrently; the
// merger decides what the results mean. quarantined counts records the
// integrity layer refused while walking this account — the merger
// books them against the account in the coverage ledger.
type scanOutcome struct {
	fresh       []ethtypes.Hash
	splits      [][]Split
	quarantined int64
	err         error
}

// maxIterations bounds the expansion loop as a safety valve; the loop
// normally reaches a fixpoint long before.
const maxIterations = 50

// Build runs seed collection, seed dataset construction, and iterative
// expansion, returning the final dataset. With CheckpointPath set, the
// state is persisted at iteration boundaries; with Resume, an existing
// checkpoint is restored and the build continues from it.
func (p *Pipeline) Build() (*Dataset, error) {
	if p.Source == nil || p.Labels == nil {
		return nil, fmt.Errorf("core: pipeline needs a Source and Labels")
	}
	if p.Coverage == nil {
		p.Coverage = NewCoverage()
	}
	p.pm = newPipelineMetrics(p.Metrics)
	ctx := context.Background()
	if p.Spans != nil {
		ctx = obs.WithRecorder(ctx, p.Spans)
	}
	ctx, root := obs.Start(ctx, "pipeline.build")
	defer root.End()

	st, err := p.restoreOrSeed(ctx)
	if err != nil {
		return nil, err
	}
	adm := p.admission(st)

	// Step 4: snowball expansion until fixpoint. On resume the loop
	// picks up at the checkpoint's completed-iteration count; the
	// frontier is the tracker's restored pending accounts.
	for iter := st.iterations; iter < maxIterations; iter++ {
		before := st.ds.Stats()
		// Scan the history of every not-yet-scanned operator and
		// affiliate account for profit-sharing transactions invoking
		// unknown contracts.
		frontier := st.tracker.next(st.scanned)
		p.pm.frontier.Set(int64(len(frontier)))
		if len(frontier) == 0 {
			break
		}
		p.pm.iterations.Inc()
		_, iterSpan := obs.Start(ctx, "pipeline.expand.iter")
		iterSpan.SetAttr("iter", iter+1)
		iterSpan.SetAttr("frontier", len(frontier))
		if err := p.expandIteration(ctx, adm, frontier, st.scanned); err != nil {
			iterSpan.End()
			return nil, err
		}
		after := st.ds.Stats()
		iterSpan.SetAttr("contracts", after.Contracts)
		iterSpan.SetAttr("profit_txs", after.ProfitTxs)
		iterSpan.End()
		p.log().Info("step 4: expansion iteration finished",
			"iter", iter+1,
			"frontier", len(frontier),
			"contracts", after.Contracts,
			"operators", after.Operators,
			"affiliates", after.Affiliates,
			"profit_txs", after.ProfitTxs)
		st.iterations = iter + 1
		if err := p.checkpoint(st); err != nil {
			return nil, err
		}
		if after == before {
			break
		}
	}
	p.pm.degradedAccts.Set(int64(len(p.Coverage.Stats().Degraded)))
	return st.ds, nil
}

// restoreOrSeed produces the expansion loop's starting state: the
// checkpoint when resuming and one exists, otherwise a fresh seed
// build (steps 1–3), checkpointed before expansion begins.
func (p *Pipeline) restoreOrSeed(ctx context.Context) (*buildState, error) {
	if p.Resume && p.CheckpointPath != "" {
		st, err := loadCheckpointFile(p.CheckpointPath, readCheckpoint)
		if err != nil {
			return nil, err
		}
		if st != nil {
			p.pm.ckptResumes.Inc()
			p.pm.ckptLastIter.Set(int64(st.iterations))
			// Re-arm the live quarantine and coverage stores from the
			// checkpointed state, then hand them to the state so later
			// checkpoints keep snapshotting them.
			if p.Quarantine != nil && len(st.quarantineBlob) > 0 {
				if err := p.Quarantine.Restore(st.quarantineBlob); err != nil {
					return nil, fmt.Errorf("core: restoring checkpoint quarantine: %w", err)
				}
			}
			p.Coverage.restore(st.coverage)
			st.quarantine = p.Quarantine
			st.cov = p.Coverage
			stats := st.ds.Stats()
			p.log().Info("resumed from checkpoint",
				"path", p.CheckpointPath,
				"iterations_done", st.iterations,
				"contracts", stats.Contracts,
				"pending_accounts", len(st.tracker.ops)+len(st.tracker.affs))
			return st, nil
		}
		p.log().Info("no checkpoint on disk, building from seed", "path", p.CheckpointPath)
	}

	st := &buildState{
		ds:         NewDataset(),
		scanned:    make(map[ethtypes.Address]bool),
		classified: make(map[ethtypes.Hash]bool),
		tracker:    newFrontierTracker(),
		quarantine: p.Quarantine,
		cov:        p.Coverage,
	}

	// Step 1: collect phishing reports from the public sources and keep
	// the contracts.
	adm := p.admission(st)
	_, collect := obs.Start(ctx, "pipeline.seed.collect")
	var seedContracts []ethtypes.Address
	for _, addr := range p.Labels.AllPhishing() {
		isContract, err := adm.layer.IsContract(ctx, addr)
		if err != nil {
			collect.End()
			return nil, fmt.Errorf("core: step 1: %w", err)
		}
		if isContract {
			seedContracts = append(seedContracts, addr)
		}
	}
	collect.SetAttr("contracts", len(seedContracts))
	collect.End()
	p.log().Info("step 1: labeled phishing contracts collected", "contracts", len(seedContracts))

	// Step 2 + 3: identify profit-sharing contracts among the reports
	// and extract operator/affiliate accounts — the seed dataset.
	_, absorb := obs.Start(ctx, "pipeline.seed.absorb")
	for _, addr := range seedContracts {
		if _, err := adm.Absorb(ctx, addr, DiscoverySeed, math.MaxUint64); err != nil {
			absorb.End()
			return nil, fmt.Errorf("core: step 2: %w", err)
		}
	}
	absorb.SetAttr("contracts", st.ds.SeedStats.Contracts)
	absorb.SetAttr("profit_txs", st.ds.SeedStats.ProfitTxs)
	absorb.End()
	p.log().Info("step 3: seed dataset built",
		"contracts", st.ds.SeedStats.Contracts,
		"operators", st.ds.SeedStats.Operators,
		"affiliates", st.ds.SeedStats.Affiliates,
		"profit_txs", st.ds.SeedStats.ProfitTxs)

	// The seed checkpoint is always written: seeding is the longest
	// single uninterruptible stretch, so losing it hurts the most.
	if err := p.checkpoint(st); err != nil {
		return nil, err
	}
	return st, nil
}

// checkpoint persists st when checkpointing is enabled.
func (p *Pipeline) checkpoint(st *buildState) error {
	if p.CheckpointPath == "" {
		return nil
	}
	buf, err := marshalCheckpoint(st)
	if err != nil {
		return err
	}
	n, err := WriteCheckpointFile(p.CheckpointPath, buf)
	if err != nil {
		return err
	}
	p.pm.ckptWrites.Inc()
	p.pm.ckptBytes.Set(n)
	p.pm.ckptLastIter.Set(int64(st.iterations))
	p.log().Debug("checkpoint written",
		"path", p.CheckpointPath,
		"bytes", n,
		"iterations_done", st.iterations)
	return nil
}

// expandIteration scans one frontier. With Concurrency ≤ 1 each
// account is scanned and merged inline, exactly the historical serial
// walk. Otherwise a pool of scanners works ahead speculatively while a
// single merger applies outcomes in frontier order: scanning (fetch +
// classify) is pure, and every stateful decision — admission, the
// expansion gate, the classified set — happens only in the merger, so
// the dataset is identical to the serial build.
func (p *Pipeline) expandIteration(ctx context.Context, adm *Admission, frontier []ethtypes.Address,
	scanned map[ethtypes.Address]bool) error {

	workers := p.Concurrency
	if workers > len(frontier) {
		workers = len(frontier)
	}
	if workers <= 1 {
		p.pm.scanWorkers.Set(1)
		for _, acct := range frontier {
			scanned[acct] = true
			p.pm.accountsScanned.Inc()
			p.Coverage.NoteScanned(1)
			out := p.scanAccount(ctx, adm, acct, adm.Classified)
			if out.err != nil {
				return out.err
			}
			if err := p.mergeScan(ctx, adm, acct, out); err != nil {
				return err
			}
		}
		return nil
	}

	p.pm.scanWorkers.Set(int64(workers))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Scanners filter against a snapshot of the classified set: the
	// live set advances as the merger absorbs contracts, so a snapshot
	// scan may fetch and classify a few hashes the serial walk would
	// have skipped. The merger re-checks the live set before using any
	// result, which is also what makes the speculation safe.
	snapshot := maps.Clone(adm.Classified)
	results := make([]chan scanOutcome, len(frontier))
	for i := range results {
		results[i] = make(chan scanOutcome, 1)
	}
	// The window keeps scanners at most 2×workers accounts ahead of
	// the merger, bounding buffered speculative results; slots are
	// released by the merger as it consumes.
	window := make(chan struct{}, 2*workers)
	sem := make(chan struct{}, workers)
	go func() {
		for i, acct := range frontier {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			go func(i int, acct ethtypes.Address) {
				defer func() { <-sem }()
				results[i] <- p.scanAccount(ctx, adm, acct, snapshot)
			}(i, acct)
		}
	}()

	for i, acct := range frontier {
		out := <-results[i]
		<-window
		if out.err != nil {
			return out.err
		}
		scanned[acct] = true
		p.pm.accountsScanned.Inc()
		p.Coverage.NoteScanned(1)
		if err := p.mergeScan(ctx, adm, acct, out); err != nil {
			return err
		}
	}
	return nil
}

// scanAccount walks one frontier account's history: list, filter
// already-classified hashes, fetch, classify. It reads skip (which
// must not be mutated concurrently) and shared immutable state only.
func (p *Pipeline) scanAccount(ctx context.Context, adm *Admission, acct ethtypes.Address, skip map[ethtypes.Hash]bool) scanOutcome {
	if err := ctx.Err(); err != nil {
		return scanOutcome{err: err}
	}
	hashes, err := adm.layer.TransactionsOf(ctx, acct)
	if err != nil {
		return scanOutcome{err: fmt.Errorf("core: step 4: %w", err)}
	}
	fresh := unclassified(hashes, skip)
	pairs, err := adm.fetchAll(ctx, fresh)
	if err != nil {
		return scanOutcome{err: err}
	}
	// Quarantined hashes are dropped here — never classified and never
	// marked classified, so a later pass (or resumed build) may still
	// admit them if the source recovers.
	kept := fresh[:0:0]
	var quarantined int64
	splits := make([][]Split, 0, len(fresh))
	for i, h := range fresh {
		if pairs[i].tx == nil || pairs[i].rec == nil {
			quarantined++
			continue
		}
		kept = append(kept, h)
		splits = append(splits, adm.Classify(pairs[i].tx, pairs[i].rec))
	}
	return scanOutcome{fresh: kept, splits: splits, quarantined: quarantined}
}

// mergeScan applies one account's scan outcome to the dataset. Always
// called from a single goroutine, in frontier order. The pairs it
// books as fetched are the kept hashes still unclassified when it
// starts: exactly what the serial walk fetches for acct, whatever a
// speculative scan fetched ahead of it.
func (p *Pipeline) mergeScan(ctx context.Context, adm *Admission, acct ethtypes.Address, out scanOutcome) error {
	var fetched int64
	for _, h := range out.fresh {
		if !adm.Classified[h] {
			fetched++
		}
	}
	p.Coverage.NoteFetched(fetched)
	if out.quarantined > 0 {
		p.Coverage.NoteQuarantined(acct, out.quarantined)
		p.log().Info("account degraded: quarantined records in history",
			"account", acct.Short(), "quarantined", out.quarantined)
	}
	for i, h := range out.fresh {
		if adm.Classified[h] {
			continue // classified by an earlier absorb this pass
		}
		splits := out.splits[i]
		if len(splits) == 0 {
			continue
		}
		contract := splits[0].Contract
		if crec, known := adm.DS.Contracts[contract]; known {
			// Known contract, possibly new counterparties.
			if err := adm.Fold(crec, h, splits); err != nil {
				return err
			}
			continue
		}
		// The frontier account whose history surfaced the transaction
		// is its only witness.
		if !adm.Gate(splits, []ethtypes.Address{acct}) {
			continue
		}
		if _, err := adm.Absorb(ctx, contract, DiscoveryExpansion, math.MaxUint64); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pipeline) log() *slog.Logger { return obs.OrDiscard(p.Logger) }

// admission returns the admission state over st, feeding each newly
// admitted operator and affiliate to the frontier tracker.
func (p *Pipeline) admission(st *buildState) *Admission {
	adm := NewAdmission(p.Source, p.Labels, p.Coverage, p.Metrics, st.tracker.admitted)
	adm.concurrency = p.Concurrency
	adm.DS, adm.Classified = st.ds, st.classified
	return adm
}
