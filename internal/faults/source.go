package faults

import (
	"context"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// Source is a core.ChainSource with the injector in front of it:
// every chain read first rolls the fault schedule, exactly once per
// call, and errors when a fault lands. It serves the same optional
// source capabilities (batching, bytecode, context-aware fetches) as
// any stack top, so the pipeline under test exercises the same code
// paths it would against a production stack.
type Source struct {
	*core.Top
}

// layer is the fault-injection layer under Source's top.
type layer struct {
	core.Layer
	inj *Injector
}

// WrapSource returns src with the injector in front of it.
func WrapSource(src core.ChainSource, inj *Injector) *Source {
	return &Source{core.NewTop(&layer{Layer: core.NewLeaf(src, nil), inj: inj})}
}

// fault rolls the schedule for a non-record operation. A corruption
// kind drawn here has nothing to corrupt (hash lists and booleans carry
// no validatable record), so it passes the clean response through; the
// roll is still consumed, keeping the schedule aligned.
func (s *layer) fault(op string) error {
	kind, fatal, ok := s.inj.roll()
	if !ok || (!fatal && kind.corrupting()) {
		return nil
	}
	return sourceError(kind, fatal, op)
}

// rollRecord rolls the schedule for a record-fetching operation: it
// reports a corruption kind to apply to the response, an error to
// return instead, or a clean pass.
func (s *layer) rollRecord(op string) (kind Kind, corrupt bool, err error) {
	kind, fatal, ok := s.inj.roll()
	if !ok {
		return 0, false, nil
	}
	if !fatal && kind.corrupting() {
		return kind, true, nil
	}
	return 0, false, sourceError(kind, fatal, op)
}

// corruptTransaction returns a deep-enough copy of tx with its sender
// mutated. The memoized hash is copied along, exactly like a tampering
// middlebox would preserve the claimed identity — only a recomputed
// hash can see the mutation. The chain's own record is never touched.
func corruptTransaction(tx *chain.Transaction) *chain.Transaction {
	if tx == nil {
		return nil
	}
	cp := *tx
	cp.From[0] ^= 0xff
	return &cp
}

// corruptReceipt returns a copy of rec mangled per kind. Every branch
// produces a violation the integrity layer is guaranteed to detect;
// mutated slices are copied first so the chain's record stays intact.
func corruptReceipt(rec *chain.Receipt, kind Kind) *chain.Receipt {
	if rec == nil {
		return nil
	}
	cp := *rec
	switch kind {
	case KindStaleReorg:
		cp.BlockNumber += 1 << 41
		// AddDate, not Add: +500 years overflows time.Duration.
		cp.Timestamp = cp.Timestamp.AddDate(500, 0, 0)
	case KindTruncateLogs:
		switch {
		case len(cp.Logs) > 0:
			logs := append([]chain.Log(nil), cp.Logs...)
			logs[len(logs)-1].Address = ethtypes.Address{}
			logs[len(logs)-1].Topics = nil
			cp.Logs = logs
		case len(cp.Transfers) > 0:
			trs := append([]chain.Transfer(nil), cp.Transfers...)
			trs[len(trs)-1].From = ethtypes.Address{}
			trs[len(trs)-1].To = ethtypes.Address{}
			cp.Transfers = trs
		default:
			cp.TxHash[16] ^= 0xff
		}
	default: // KindCorruptField
		cp.TxHash[0] ^= 0xff
	}
	return &cp
}

// TransactionsOf implements core.Layer.
func (s *layer) TransactionsOf(ctx context.Context, addr ethtypes.Address) ([]ethtypes.Hash, error) {
	if err := s.fault("TransactionsOf"); err != nil {
		return nil, err
	}
	return s.Layer.TransactionsOf(ctx, addr)
}

// IsContract implements core.Layer.
func (s *layer) IsContract(ctx context.Context, addr ethtypes.Address) (bool, error) {
	if err := s.fault("IsContract"); err != nil {
		return false, err
	}
	return s.Layer.IsContract(ctx, addr)
}

// Code implements core.Layer.
func (s *layer) Code(ctx context.Context, addr ethtypes.Address) ([]byte, error) {
	if err := s.fault("Code"); err != nil {
		return nil, err
	}
	return s.Layer.Code(ctx, addr)
}

// Transactions implements core.Layer. All corruption kinds degrade to
// field mutation on a transaction.
func (s *layer) Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	return inject(ctx, s, hs, core.TxOp(hs), s.Layer.Transactions,
		func(tx *chain.Transaction, _ Kind) *chain.Transaction { return corruptTransaction(tx) })
}

// Receipts implements core.Layer.
func (s *layer) Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	return inject(ctx, s, hs, core.ReceiptOp(hs), s.Layer.Receipts, corruptReceipt)
}

// inject rolls the schedule once for a record read. A rolled error
// replaces the read; a rolled corruption lands on the first entry.
func inject[T any](ctx context.Context, s *layer, hs []ethtypes.Hash, op string,
	read func(context.Context, []ethtypes.Hash) ([]T, error), corrupt func(T, Kind) T) ([]T, error) {
	kind, corrupted, err := s.rollRecord(op)
	if err != nil {
		return nil, err
	}
	out, err := read(ctx, hs)
	if err != nil {
		return nil, err
	}
	if corrupted && len(out) > 0 {
		// Corrupt a copy: the source's own slice and records stay intact.
		out = append([]T(nil), out...)
		out[0] = corrupt(out[0], kind)
	}
	return out, nil
}
