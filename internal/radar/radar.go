// Package radar is the live counterpart of the one-shot discovery
// pipeline (§5.1): a head-following daemon that polls a chain's block
// cursor, classifies arriving transactions with the profit-sharing
// detector, grows the snowball dataset and the §7.1 family clusters
// incrementally, and hot-swaps the screening engine's snapshot as the
// picture changes.
//
// The dataset rules live in one admission core, core.Admission, with
// two drivers: core.Pipeline walks a frontier of account histories,
// and the radar feeds the same core in block order. For each new
// split-bearing transaction the radar climbs one ladder: fold it into
// a known contract, seed a labeled phishing contract, or absorb the
// invoked contract through the expansion gate, witnessed by the
// dataset accounts among the transaction's parties. Absorbs stop at
// the block being ingested: later history arrives live, which keeps
// restore points consistent with their block boundary. A transaction
// no rung admits is parked and re-examined to fixpoint whenever the
// dataset grows — the arrival-order analogue of the batch frontier's
// iteration.
//
// The package's hard invariant is replay equivalence: feeding a chain
// through the radar block-by-block — in any step batching, through any
// checkpoint/resume, and across bounded reorgs — produces a dataset
// and family export byte-identical to running core.Pipeline followed
// by cluster.Clusterer over the finished chain.
//
// Reorgs are handled with a bounded ring of recent block hashes, two
// in-memory restore points (serialized checkpoints at multiples of the
// reorg window), and the integrity layer's per-tx pins: on a fork the
// radar releases receipt pins above the fork block, restores the
// newest point at or below it, and replays forward.
package radar

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/screen"
)

// PinReleaser releases integrity reorg pins above a block;
// *integrity.Source implements it.
type PinReleaser interface {
	ReleasePinsAbove(block uint64) int
}

// Config wires a Radar to its chain, detector, and outputs.
type Config struct {
	// Source serves transaction/receipt records — normally the full
	// cache→integrity→retry→metrics stack, so the radar inherits
	// quarantine semantics and refetch behavior.
	Source core.ChainSource
	// Blocks serves the head cursor and block headers.
	Blocks BlockSource
	// Labels is the phishing-label directory used for seeding and
	// family naming.
	Labels *labels.Directory
	// Classifier detects profit-sharing splits (zero value = paper
	// defaults).
	Classifier core.Classifier
	// Engine, when set, receives a freshly compiled screening snapshot
	// after every step that changed the dataset.
	Engine *screen.Engine
	// Domains are phishing domains compiled into each snapshot.
	Domains []string
	// Static, when set, annotates contract records with bytecode
	// fingerprints before each snapshot compile and export.
	Static *core.StaticScreen
	// PollInterval is the head poll cadence of Run (default 250ms).
	PollInterval time.Duration
	// ReorgWindow bounds rollback depth: the radar keeps this many
	// recent block hashes and restore points spaced this many blocks
	// apart (default 32).
	ReorgWindow int
	// CheckpointPath, when set, persists a version-3 radar checkpoint
	// at block boundaries.
	CheckpointPath string
	// CheckpointEvery spaces checkpoint writes in blocks (default 1).
	CheckpointEvery int
	// Resume restores state from CheckpointPath when the file exists.
	Resume bool
	// Pins, when set, has receipt pins above the fork released on
	// rollback.
	Pins PinReleaser
	// Coverage, when set, books quarantined records per account like
	// the batch pipeline does.
	Coverage *core.Coverage
	Metrics  *obs.Registry
	Logger   *obs.Logger
}

// pendingTx is a split-bearing transaction that failed the expansion
// gate (or could not be fetched yet): it is re-examined whenever the
// dataset grows. splits == nil marks an unfetched (quarantined) entry.
type pendingTx struct {
	block    uint64
	splits   []core.Split
	touching []ethtypes.Address
}

// ringEntry is one recently processed block in the reorg ring.
type ringEntry struct {
	Number uint64
	Hash   ethtypes.Hash
}

// statePoint is an in-memory restore point: a serialized checkpoint at
// a block boundary.
type statePoint struct {
	head uint64
	blob []byte
}

type radarMetrics struct {
	blocks, txs, reorgsC, swapsC, updates, ckpts, stepErrs *obs.Counter
	head, cursor, pendingG, familiesG                      *obs.Gauge
}

func newRadarMetrics(reg *obs.Registry) radarMetrics {
	return radarMetrics{
		blocks:    reg.Counter("daas_radar_blocks_total", "blocks ingested by the radar"),
		txs:       reg.Counter("daas_radar_txs_total", "transactions examined by the radar"),
		reorgsC:   reg.Counter("daas_radar_reorgs_total", "reorg rollbacks performed"),
		swapsC:    reg.Counter("daas_radar_swaps_total", "screening snapshots hot-swapped"),
		updates:   reg.Counter("daas_radar_updates_total", "update feed entries emitted"),
		ckpts:     reg.Counter("daas_radar_checkpoint_writes_total", "radar checkpoints written"),
		stepErrs:  reg.Counter("daas_radar_step_errors_total", "radar steps that returned an error"),
		head:      reg.Gauge("daas_radar_head", "latest chain head observed"),
		cursor:    reg.Gauge("daas_radar_cursor", "last block folded into the dataset"),
		pendingG:  reg.Gauge("daas_radar_pending_txs", "split transactions parked at the expansion gate"),
		familiesG: reg.Gauge("daas_radar_families", "families in the latest rollup"),
	}
}

// Radar is the live detection daemon. All mutable state is guarded by
// mu; Step, Status, Updates, and ExportJSON may be called from
// different goroutines.
type Radar struct {
	cfg Config
	m   radarMetrics

	mu       sync.Mutex
	adm      *core.Admission // the dataset and the rules that grow it
	pending  map[ethtypes.Hash]*pendingTx
	inc      *cluster.Incremental
	phishing map[ethtypes.Address]bool

	cursor   uint64 // last block folded in
	lastHead uint64
	dirty    bool // dataset changed since last recompile

	ring   []ringEntry
	points []statePoint

	updates      []Update
	updateCursor uint64
	reorgs       int
	swaps        uint64

	famOf       map[ethtypes.Address]string
	familyCount int
}

// New builds a radar; with cfg.Resume set and a checkpoint present the
// daemon continues exactly where the checkpointed one stopped.
func New(cfg Config) (*Radar, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("radar: Config.Source is required")
	}
	if cfg.Blocks == nil {
		return nil, fmt.Errorf("radar: Config.Blocks is required")
	}
	if cfg.Labels == nil {
		return nil, fmt.Errorf("radar: Config.Labels is required")
	}
	r := &Radar{cfg: cfg, m: newRadarMetrics(cfg.Metrics)}
	r.adm = core.NewAdmission(cfg.Source, cfg.Labels, cfg.Classifier, cfg.Coverage, cfg.Metrics, r.admittedLocked)
	r.phishing = make(map[ethtypes.Address]bool)
	for _, a := range cfg.Labels.AllPhishing() {
		r.phishing[a] = true
	}
	if cfg.Resume && cfg.CheckpointPath != "" {
		cp, err := core.LoadRadarCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if cp != nil {
			if err := r.applyCheckpointLocked(cp, false); err != nil {
				return nil, err
			}
			r.logger().Info("radar resumed from checkpoint",
				"path", cfg.CheckpointPath, "cursor", r.cursor)
			return r, nil
		}
	}
	if err := r.resetLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Radar) logger() *obs.Logger { return r.cfg.Logger }

func (r *Radar) window() int {
	if r.cfg.ReorgWindow > 0 {
		return r.cfg.ReorgWindow
	}
	return 32
}

// resetLocked reinitializes to genesis state.
func (r *Radar) resetLocked() error {
	r.adm.DS = core.NewDataset()
	r.adm.Classified = make(map[ethtypes.Hash]bool)
	r.pending = make(map[ethtypes.Hash]*pendingTx)
	r.inc = cluster.NewIncremental(r.cfg.Labels, r.cfg.Metrics)
	r.cursor = 0
	r.famOf = make(map[ethtypes.Address]string)
	r.familyCount = 0
	r.points = nil
	gen, err := r.cfg.Blocks.BlockRef(0)
	if err != nil {
		return fmt.Errorf("radar: fetching genesis: %w", err)
	}
	r.ring = []ringEntry{{Number: 0, Hash: gen.Hash}}
	return nil
}

// Run polls the head until ctx is canceled. Step errors are logged and
// retried on the next tick; a daemon should survive transient source
// failures.
func (r *Radar) Run(ctx context.Context) error {
	interval := r.cfg.PollInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if _, err := r.Step(); err != nil {
			r.m.stepErrs.Inc()
			r.logger().Warn("radar step failed", "err", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Step performs one poll: verify the tail against the chain (rolling
// back on a reorg), ingest new blocks up to the head, and recompile
// the screening snapshot if anything changed. It reports whether the
// cursor advanced.
func (r *Radar) Step() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	head, err := r.cfg.Blocks.Head()
	if err != nil {
		return false, err
	}
	r.lastHead = head
	r.m.head.Set(int64(head))

	fork, reorged, err := r.checkTailLocked(head)
	if err != nil {
		return false, err
	}
	if reorged {
		if err := r.rollbackLocked(fork); err != nil {
			return false, err
		}
	}

	advanced := false
	for r.cursor < head {
		n := r.cursor + 1
		ref, err := r.cfg.Blocks.BlockRef(n)
		if err != nil {
			return advanced, err
		}
		if ref.Parent != r.ring[len(r.ring)-1].Hash {
			// The chain moved beneath us mid-step; the next Step's tail
			// verification resolves the fork.
			break
		}
		if err := r.processBlockLocked(ref); err != nil {
			return advanced, r.failsafeLocked(err)
		}
		r.ring = append(r.ring, ringEntry{Number: ref.Number, Hash: ref.Hash})
		for len(r.ring) > r.window()+1 {
			r.ring = r.ring[1:]
		}
		r.cursor = n
		r.m.cursor.Set(int64(n))
		advanced = true
		if err := r.maybePointLocked(); err != nil {
			return advanced, err
		}
		if err := r.maybeCheckpointLocked(); err != nil {
			return advanced, err
		}
	}
	if r.dirty {
		if err := r.recompileLocked(); err != nil {
			return advanced, err
		}
		r.dirty = false
	}
	r.m.pendingG.Set(int64(len(r.pending)))
	// A fully successful step confirms the serving snapshot is current
	// even when nothing changed; during a source outage this stops
	// firing and the engine's staleness (snapshotAge on verdicts,
	// daas_screen_stale_seconds) starts growing while screening keeps
	// answering from the last good snapshot.
	if r.cfg.Engine != nil {
		r.cfg.Engine.MarkFresh()
	}
	return advanced, nil
}

// checkTailLocked verifies that the last processed block is still
// canonical. On a mismatch it walks the ring backwards to the fork
// point. A divergence deeper than the ring is an error: the radar
// cannot roll back past its window.
func (r *Radar) checkTailLocked(head uint64) (fork uint64, reorged bool, err error) {
	limit := r.cursor
	if head < limit {
		limit = head
	}
	floor := r.ring[0].Number
	for n := limit; ; n-- {
		if n < floor {
			return 0, false, fmt.Errorf("radar: reorg deeper than the %d-block window (ring floor %d)", r.window(), floor)
		}
		ref, err := r.cfg.Blocks.BlockRef(n)
		if err != nil {
			return 0, false, err
		}
		if r.ring[n-floor].Hash == ref.Hash {
			if n == r.cursor {
				return 0, false, nil
			}
			return n, true, nil
		}
		if n == 0 {
			return 0, false, fmt.Errorf("radar: genesis hash mismatch — wrong chain")
		}
	}
}

// rollbackLocked undoes all state above the fork block: integrity
// receipt pins are released, the newest restore point at or below the
// fork is reinstated (or the radar resets to genesis), and a reorg
// update is emitted. The main loop then replays the canonical blocks.
func (r *Radar) rollbackLocked(fork uint64) error {
	released := 0
	if r.cfg.Pins != nil {
		released = r.cfg.Pins.ReleasePinsAbove(fork)
	}
	if err := r.restorePointLocked(fork); err != nil {
		return err
	}
	r.reorgs++
	r.m.reorgsC.Inc()
	r.dirty = true
	r.emitLocked(Update{Kind: KindReorg, Block: fork})
	r.logger().Info("radar reorg rollback",
		"fork", fork, "restored_cursor", r.cursor, "pins_released", released)
	return nil
}

// failsafeLocked recovers from a mid-block ingest failure. Block
// ingestion is not atomic — an error inside an absorb cascade leaves a
// contract partially recorded, and simply continuing would diverge
// from the batch pipeline forever. Instead the radar falls back to the
// newest restore point (or genesis) and replays deterministically,
// exactly like a reorg rollback; a reorg update tells feed consumers
// to resync. The original error is returned for the caller to log.
func (r *Radar) failsafeLocked(cause error) error {
	if err := r.restorePointLocked(r.cursor); err != nil {
		return fmt.Errorf("radar: failsafe reset after %w: %w", cause, err)
	}
	r.emitLocked(Update{Kind: KindReorg, Block: r.cursor})
	r.logger().Warn("radar ingest failed; rolled back to restore point",
		"cursor", r.cursor, "err", cause)
	return cause
}

// restorePointLocked reinstates the newest restore point at or below
// block maxHead, or genesis state when there is none. A point that
// fails to decode is dropped in favor of an older one.
func (r *Radar) restorePointLocked(maxHead uint64) error {
	for i := len(r.points) - 1; i >= 0; i-- {
		if r.points[i].head <= maxHead && r.restoreBlobLocked(r.points[i].blob, true) == nil {
			r.points = r.points[:i+1]
			return nil
		}
	}
	return r.resetLocked()
}

// maybePointLocked records an in-memory restore point every
// ReorgWindow blocks, keeping the last two — enough to cover any fork
// within the ring.
func (r *Radar) maybePointLocked() error {
	w := uint64(r.window())
	if r.cursor == 0 || r.cursor%w != 0 {
		return nil
	}
	blob, err := r.marshalStateLocked()
	if err != nil {
		return err
	}
	r.points = append(r.points, statePoint{head: r.cursor, blob: blob})
	if len(r.points) > 2 {
		r.points = r.points[len(r.points)-2:]
	}
	return nil
}

func (r *Radar) maybeCheckpointLocked() error {
	if r.cfg.CheckpointPath == "" {
		return nil
	}
	every := uint64(r.cfg.CheckpointEvery)
	if every == 0 {
		every = 1
	}
	if r.cursor%every != 0 {
		return nil
	}
	blob, err := r.marshalStateLocked()
	if err != nil {
		return err
	}
	if _, err := core.WriteCheckpointFile(r.cfg.CheckpointPath, blob); err != nil {
		return err
	}
	r.m.ckpts.Inc()
	return nil
}

// processBlockLocked ingests one canonical block: every transaction is
// fetched through the record source, fed to the incremental clusterer
// for member parties, classified, and run through the admission ladder;
// then the pending set is retried to fixpoint.
func (r *Radar) processBlockLocked(ref BlockRef) error {
	r.m.blocks.Inc()
	r.m.txs.Add(uint64(len(ref.TxHashes)))
	for _, h := range ref.TxHashes {
		tx, rec, err := r.adm.FetchOne(context.TODO(), h)
		if err != nil {
			return err
		}
		if tx == nil {
			r.parkLocked(h, ref.Number)
			continue
		}
		// Cluster evidence flows for every transaction touching a member
		// operator — including ones already classified by an absorb
		// earlier in this same block.
		r.feedMembersLocked(tx, rec)
		if r.adm.Classified[h] {
			continue
		}
		splits := r.adm.Classify(tx, rec)
		if len(splits) == 0 {
			continue
		}
		pt := &pendingTx{block: ref.Number, splits: splits, touching: chain.TouchedAccounts(tx, rec)}
		admitted, err := r.admitLocked(h, pt, ref.Number)
		if err != nil {
			return err
		}
		if !admitted {
			r.pending[h] = pt
		}
	}
	return r.retryPendingLocked(ref.Number)
}

// parkLocked parks an unfetched (quarantined) transaction for a later
// retry, unless it is already folded in or parked.
func (r *Radar) parkLocked(h ethtypes.Hash, b uint64) {
	if _, ok := r.pending[h]; !ok && !r.adm.Classified[h] {
		r.pending[h] = &pendingTx{block: b}
	}
}

// admitLocked runs the admission ladder on one split-bearing
// transaction, in the batch pipeline's precedence: fold it into a known
// contract, seed a labeled phishing contract (its history up to block
// b is absorbed, like the batch seed phase), or absorb the contract
// through the expansion gate. It reports whether a rung fired; a
// transaction no rung admits stays parked until the dataset grows.
func (r *Radar) admitLocked(h ethtypes.Hash, pt *pendingTx, b uint64) (bool, error) {
	contract := pt.splits[0].Contract
	if crec, known := r.adm.DS.Contracts[contract]; known {
		r.dirty = true
		return true, r.adm.Fold(crec, h, pt.splits)
	}
	found := core.DiscoveryExpansion
	if r.phishing[contract] {
		isC, err := r.cfg.Source.IsContract(contract)
		if err != nil {
			return false, err
		}
		if isC {
			found = core.DiscoverySeed
		}
	}
	if found == core.DiscoveryExpansion && !r.adm.Gate(pt.splits, pt.touching) {
		return false, nil
	}
	unfetched, err := r.adm.Absorb(context.TODO(), contract, found, b)
	for _, u := range unfetched {
		r.parkLocked(u, b)
	}
	return true, err
}

// admittedLocked is the admission core's core.OnAdmit hook: it announces
// the new account on the update feed and starts the incremental
// cluster feed for a new operator. Admissions happen only while block
// cursor+1 is being ingested.
func (r *Radar) admittedLocked(role core.Role, a ethtypes.Address, found core.Discovery) error {
	b := r.cursor + 1
	r.dirty = true
	r.emitLocked(Update{Kind: string(role), Block: b, Address: a.Hex(), Discovery: string(found)})
	if role == core.RoleOperator {
		return r.admitOperatorLocked(a, b)
	}
	return nil
}

// admitOperatorLocked registers a new operator with the incremental
// clusterer and feeds its history up to block b — the arrival-order
// analogue of the batch clusterer's per-operator history walk. Later
// evidence arrives through the per-block member feed.
func (r *Radar) admitOperatorLocked(op ethtypes.Address, b uint64) error {
	r.inc.AddOperator(op)
	hashes, err := r.cfg.Source.TransactionsOf(op)
	if err != nil {
		return err
	}
	for _, h := range hashes {
		tx, rec, err := r.adm.FetchOne(context.TODO(), h)
		if err != nil {
			return err
		}
		if tx == nil {
			r.inc.ObserveQuarantined(op)
			continue
		}
		if rec.BlockNumber > b {
			continue
		}
		r.inc.ObserveTx(op, tx)
	}
	return nil
}

// feedMembersLocked forwards one transaction to the clusterer for
// every member operator it touches; double feeds are idempotent.
func (r *Radar) feedMembersLocked(tx *chain.Transaction, rec *chain.Receipt) {
	for _, p := range chain.TouchedAccounts(tx, rec) {
		if r.inc.Contains(p) {
			r.inc.ObserveTx(p, tx)
		}
	}
}

// retryPendingLocked re-examines parked transactions until no rule
// fires — the arrival-order fixpoint matching the batch frontier's
// iteration. Entries are visited in (block, hash) order so the
// resulting dataset is independent of arrival batching.
func (r *Radar) retryPendingLocked(b uint64) error {
	for {
		changed := false
		for _, h := range r.sortedPendingLocked() {
			pt, ok := r.pending[h]
			if !ok {
				continue
			}
			if r.adm.Classified[h] {
				delete(r.pending, h)
				continue
			}
			if pt.splits == nil {
				tx, rec, err := r.adm.FetchOne(context.TODO(), h)
				if err != nil {
					return err
				}
				if tx == nil {
					continue // still quarantined
				}
				if rec.BlockNumber > b {
					continue // future block: will arrive live
				}
				r.feedMembersLocked(tx, rec)
				splits := r.adm.Classify(tx, rec)
				if len(splits) == 0 {
					delete(r.pending, h)
					continue
				}
				*pt = pendingTx{block: rec.BlockNumber, splits: splits, touching: chain.TouchedAccounts(tx, rec)}
			}
			admitted, err := r.admitLocked(h, pt, b)
			if err != nil {
				return err
			}
			if admitted {
				delete(r.pending, h)
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

func (r *Radar) sortedPendingLocked() []ethtypes.Hash {
	out := make([]ethtypes.Hash, 0, len(r.pending))
	for h := range r.pending {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := r.pending[out[i]].block, r.pending[out[j]].block
		if bi != bj {
			return bi < bj
		}
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// recomputeSeedStatsLocked derives the batch pipeline's frozen
// seed-phase statistics from discovery tags: the batch freezes Stats()
// when only seed-found records exist, so counting seed-tagged records
// (and split transactions of seed contracts) reproduces it exactly.
func (r *Radar) recomputeSeedStatsLocked() {
	var ss core.Stats
	for _, c := range r.adm.DS.Contracts {
		if c.Found == core.DiscoverySeed {
			ss.Contracts++
		}
	}
	for _, a := range r.adm.DS.Operators {
		if a.Found == core.DiscoverySeed {
			ss.Operators++
		}
	}
	for _, a := range r.adm.DS.Affiliates {
		if a.Found == core.DiscoverySeed {
			ss.Affiliates++
		}
	}
	for _, sps := range r.adm.DS.Splits {
		if len(sps) == 0 {
			continue
		}
		if c := r.adm.DS.Contracts[sps[0].Contract]; c != nil && c.Found == core.DiscoverySeed {
			ss.ProfitTxs++
		}
	}
	r.adm.DS.SeedStats = ss
}

// finishDatasetLocked brings the dataset's derived parts up to date
// for export: seed statistics and, when configured, fingerprints.
func (r *Radar) finishDatasetLocked() error {
	r.recomputeSeedStatsLocked()
	if r.cfg.Static == nil {
		return nil
	}
	return r.adm.DS.AnnotateFingerprints(r.cfg.Static)
}

func (r *Radar) degradedLocked() map[ethtypes.Address]bool {
	out := make(map[ethtypes.Address]bool)
	for a := range r.cfg.Coverage.Stats().Degraded {
		out[a] = true
	}
	return out
}

// recompileLocked rolls up families, annotates static fingerprints,
// compiles a fresh screening snapshot, and hot-swaps it into the
// engine. Family membership changes are emitted to the update feed.
func (r *Radar) recompileLocked() error {
	if err := r.finishDatasetLocked(); err != nil {
		return err
	}
	fams := r.inc.Families(r.adm.DS, r.degradedLocked())
	r.familyCount = len(fams)
	r.m.familiesG.Set(int64(len(fams)))
	for _, fam := range fams {
		for _, c := range fam.Contracts {
			if r.famOf[c] != fam.Name {
				r.famOf[c] = fam.Name
				r.emitLocked(Update{Kind: KindFamilyContract, Block: r.cursor, Address: c.Hex(), Family: fam.Name})
			}
		}
	}
	if r.cfg.Engine != nil {
		r.cfg.Engine.Swap(screen.Compile(r.adm.DS, fams, r.cfg.Domains))
		r.swaps++
		r.m.swapsC.Inc()
		r.emitLocked(Update{Kind: KindSwap, Block: r.cursor})
	}
	return nil
}

// Families returns the current family rollup (recomputed on demand;
// cheap relative to ingest).
func (r *Radar) Families() []*cluster.Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inc.Families(r.adm.DS, r.degradedLocked())
}

// ExportJSON writes the dataset in exactly the one-shot pipeline's
// export format — the byte-identity surface.
func (r *Radar) ExportJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.finishDatasetLocked(); err != nil {
		return err
	}
	return r.adm.DS.WriteJSON(w)
}
