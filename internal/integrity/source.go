package integrity

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
)

// DefaultMaxRefetch is the re-fetch allowance per record. It is sized
// so that under seeded corruption injection the probability of a real
// record exhausting it (and perturbing the dataset) is negligible,
// while a source that keeps returning garbage still converges to a
// permanent quarantine quickly.
const DefaultMaxRefetch = 5

// Validator is the integrity layer of a chain-source stack: every
// fetched transaction and receipt is validated (CheckTransaction,
// CheckReceipt, CheckPair, reorg pins) before it reaches the layer
// above. An invalid response is quarantined and re-fetched alone up to
// MaxRefetch times; a record that never validates is quarantined
// permanently and comes back as a nil entry (core.ErrQuarantined from
// a single read of the top).
//
// In the production stack the layer sits between the fetch cache and
// the metrics layer (cache → integrity → metrics → leaf), so the cache
// only ever stores validated records and every re-fetch is a counted
// fetch. One Validator should be shared across pipeline stages: its
// per-transaction pins are what let a later stage detect a source that
// silently reorged between fetches.
type Validator struct {
	core.Layer

	// MaxRefetch overrides DefaultMaxRefetch when positive.
	MaxRefetch int
	// MaxQuarantine, when positive, fails the run (ErrBudgetExceeded)
	// once total quarantined rejections exceed it — the -max-quarantine
	// CLI knob.
	MaxQuarantine int64

	q *Quarantine

	mu   sync.Mutex
	pins map[ethtypes.Hash]*pin

	checks     *obs.CounterVec
	violations *obs.CounterVec
	refetches  *obs.Counter
	recovered  *obs.Counter
}

// Source is a Validator with its ChainSource face: the top of a stack
// whose integrity layer it exposes, so the handle that validates is
// also the one that releases reorg pins.
type Source struct {
	*core.Top
	*Validator
}

// pin remembers what was first admitted under a transaction hash:
// enough of the transaction for receipt cross-checks, and the receipt's
// chain position for reorg detection across re-fetches and stages.
type pin struct {
	haveTx  bool
	txFrom  ethtypes.Address
	txTo    *ethtypes.Address
	txValue ethtypes.Wei

	haveRec bool
	block   uint64
	unix    int64
	status  bool
}

// NewSource puts the integrity layer over below, backed by the
// quarantine store q (one is created when nil), registering
// daas_integrity_* instruments in reg (nil means no-op).
func NewSource(below core.Layer, q *Quarantine, reg *obs.Registry) *Source {
	if q == nil {
		q = NewQuarantine(reg)
	}
	v := &Validator{
		Layer:      below,
		q:          q,
		pins:       make(map[ethtypes.Hash]*pin),
		checks:     reg.CounterVec("daas_integrity_checks_total", "records validated by object kind", "object"),
		violations: reg.CounterVec("daas_integrity_violations_total", "validation failures by reason", "reason"),
		refetches:  reg.Counter("daas_integrity_refetches_total", "re-fetches of records that failed validation"),
		recovered:  reg.Counter("daas_integrity_recovered_total", "records admitted clean after a failed first response"),
	}
	return &Source{Top: core.NewTop(v), Validator: v}
}

// Wrap validates src's records: NewSource over src's leaf, with no
// chain-request instrumentation.
func Wrap(src core.ChainSource, q *Quarantine, reg *obs.Registry) *Source {
	return NewSource(core.NewLeaf(src, nil), q, reg)
}

// ReleasePinsAbove drops every receipt pin above the given block
// number, returning how many were released. A reorg rollback calls
// this before reprocessing the fork: transactions re-mined into a
// different block are legitimate after a reorg, and stale pins would
// reject their new positions as ReasonReorgPin violations. Transaction
// pins (sender/recipient/value) are kept — a reorg moves a
// transaction, it never rewrites its body.
func (s *Validator) ReleasePinsAbove(block uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	released := 0
	for h, p := range s.pins {
		if !p.haveRec || p.block <= block {
			continue
		}
		released++
		if p.haveTx {
			s.pins[h] = &pin{haveTx: true, txFrom: p.txFrom, txTo: p.txTo, txValue: p.txValue}
		} else {
			delete(s.pins, h)
		}
	}
	return released
}

// Quarantine returns the backing store.
func (s *Validator) Quarantine() *Quarantine { return s.q }

func (s *Validator) maxRefetch() int {
	if s.MaxRefetch > 0 {
		return s.MaxRefetch
	}
	return DefaultMaxRefetch
}

// budget enforces MaxQuarantine after a rejection.
func (s *Validator) budget() error {
	if s.MaxQuarantine > 0 && s.q.Total() > s.MaxQuarantine {
		return fmt.Errorf("integrity: %d rejections exceed -max-quarantine %d: %w",
			s.q.Total(), s.MaxQuarantine, ErrBudgetExceeded)
	}
	return nil
}

func (s *Validator) pinOf(h ethtypes.Hash) *pin {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pins[h]
	if !ok {
		p = &pin{}
		s.pins[h] = p
	}
	return p
}

// checkTransaction runs the per-record rules and pins the admitted
// summary.
func (s *Validator) checkTransaction(h ethtypes.Hash, tx *chain.Transaction) Reason {
	s.checks.With("tx").Inc()
	if reason := CheckTransaction(h, tx); reason != "" {
		return reason
	}
	p := s.pinOf(h)
	s.mu.Lock()
	if !p.haveTx {
		p.haveTx = true
		p.txFrom = tx.From
		if tx.To != nil {
			to := *tx.To
			p.txTo = &to
		}
		p.txValue = tx.Value
	}
	s.mu.Unlock()
	return ""
}

// checkReceipt runs the per-record rules, the tx↔receipt agreement
// check against the pinned transaction, and the reorg pin; a clean
// receipt is pinned for future re-fetch comparison.
func (s *Validator) checkReceipt(h ethtypes.Hash, rec *chain.Receipt) Reason {
	s.checks.With("receipt").Inc()
	if reason := CheckReceipt(h, rec); reason != "" {
		return reason
	}
	p := s.pinOf(h)
	s.mu.Lock()
	haveTx, pinned := p.haveTx, *p
	s.mu.Unlock()
	if haveTx {
		pinTx := &chain.Transaction{From: pinned.txFrom, To: pinned.txTo, Value: pinned.txValue}
		if reason := CheckPair(pinTx, rec); reason != "" {
			return reason
		}
	}
	if pinned.haveRec {
		if rec.BlockNumber != pinned.block || rec.Timestamp.Unix() != pinned.unix || rec.Status != pinned.status {
			return ReasonReorgPin
		}
		return ""
	}
	s.mu.Lock()
	if !p.haveRec {
		p.haveRec = true
		p.block = rec.BlockNumber
		p.unix = rec.Timestamp.Unix()
		p.status = rec.Status
	}
	s.mu.Unlock()
	return ""
}

// quarantineOne records a rejection and enforces the budget.
func (s *Validator) quarantineOne(object string, h ethtypes.Hash, reason Reason) error {
	s.violations.With(string(reason)).Inc()
	s.q.Add(Record{Object: object, Hash: h, Reason: reason})
	return s.budget()
}

// Transactions implements core.Layer.
func (s *Validator) Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	return admit(ctx, s, hs, "tx", s.Layer.Transactions, s.checkTransaction)
}

// Receipts implements core.Layer.
func (s *Validator) Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	return admit(ctx, s, hs, "receipt", s.Layer.Receipts, s.checkReceipt)
}

// admit is the one admission loop. Permanently quarantined hashes are
// not fetched, so a read of only such hashes never reaches the layer
// below; the rest are read as one batch, which is every record's
// first attempt. A rejected entry is re-fetched alone while it fails,
// up to MaxRefetch times, so a record costs at most 1 + MaxRefetch
// fetches: every re-fetch is counted, and a response that validates
// after a rejection counts as recovered. An entry that never validates
// is quarantined permanently and left nil.
func admit[T comparable](ctx context.Context, s *Validator, hs []ethtypes.Hash, object string,
	read func(context.Context, []ethtypes.Hash) ([]T, error), check func(ethtypes.Hash, T) Reason) ([]T, error) {
	want := make([]ethtypes.Hash, 0, len(hs))
	idx := make([]int, 0, len(hs))
	for i, h := range hs {
		if _, gone := s.q.Permanent(h); !gone {
			want = append(want, h)
			idx = append(idx, i)
		}
	}
	out := make([]T, len(hs))
	if len(want) == 0 {
		return out, nil
	}
	got, err := read(ctx, want)
	if err != nil {
		return nil, err
	}
	for j, h := range want {
		v := got[j]
		reason := check(h, v)
		for attempt := 1; reason != ""; attempt++ {
			if err := s.quarantineOne(object, h, reason); err != nil {
				return nil, err
			}
			if attempt > s.maxRefetch() {
				s.q.MarkPermanent(h, reason)
				var zero T
				v = zero
				break
			}
			s.refetches.Inc()
			again, err := read(ctx, []ethtypes.Hash{h})
			if err != nil {
				return nil, err
			}
			v = again[0]
			if reason = check(h, v); reason == "" {
				s.recovered.Inc()
			}
		}
		out[idx[j]] = v
	}
	return out, nil
}
