package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/obs"
)

// Layer is one stage of a chain-source stack: the fetch cache, the
// integrity check, fault injection, and at the bottom the leaf adapter
// over a ChainSource. Every read takes a context, and record reads
// work on batches: Transactions and Receipts return exactly one entry
// per requested hash, in request order, and a nil entry means the
// record is quarantined.
//
// A layer embeds the Layer below it, so the reads it does not change
// pass straight through; it writes only the methods it changes.
type Layer interface {
	TransactionsOf(ctx context.Context, addr ethtypes.Address) ([]ethtypes.Hash, error)
	IsContract(ctx context.Context, addr ethtypes.Address) (bool, error)
	Code(ctx context.Context, addr ethtypes.Address) ([]byte, error)
	Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error)
	Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error)
}

// TxOp and ReceiptOp label a record read of hs the way metrics, retry
// and fault schedules name it: a one-hash read is the single call.
func TxOp(hs []ethtypes.Hash) string {
	if len(hs) == 1 {
		return "Transaction"
	}
	return "BatchTransactions"
}

// ReceiptOp: see TxOp.
func ReceiptOp(hs []ethtypes.Hash) string {
	if len(hs) == 1 {
		return "Receipt"
	}
	return "BatchReceipts"
}

// LayerOf returns the stack core reads src through: the layers under
// src's Top when src is one (or embeds one, as integrity.Source and
// faults.Source do), and a leaf over src otherwise.
func LayerOf(src ChainSource) Layer {
	if s, ok := src.(interface{ layer() Layer }); ok {
		return s.layer()
	}
	return NewLeaf(src, nil)
}

// leaf adapts a ChainSource to the Layer shape. It is the one place in
// the program that probes a source's optional extensions: a one-hash
// read is the source's single (context) call, a larger batch goes to
// its batch method when it has one and item by item otherwise. A
// single call that fails with ErrQuarantined yields a nil entry, the
// way a quarantined record reads everywhere else in a stack. With a
// registry it records every call under the source's method name:
//
//	daas_chain_requests_total{method=…}
//	daas_chain_request_errors_total{method=…}
//	daas_chain_request_duration_seconds{method=…}
type leaf struct {
	src   ChainSource
	ctx   ContextSource
	batch BatchSource
	code  CodeSource

	requests, errors *obs.CounterVec
	latency          *obs.HistogramVec
}

// NewLeaf adapts src to a Layer, recording daas_chain_* instruments in
// reg when it is non-nil.
func NewLeaf(src ChainSource, reg *obs.Registry) Layer {
	l := &leaf{src: src}
	l.ctx, _ = src.(ContextSource)
	l.batch, _ = src.(BatchSource)
	l.code, _ = src.(CodeSource)
	if reg != nil {
		l.requests = reg.CounterVec("daas_chain_requests_total", "chain source requests by method", "method")
		l.errors = reg.CounterVec("daas_chain_request_errors_total", "failed chain source requests by method", "method")
		l.latency = reg.HistogramVec("daas_chain_request_duration_seconds", "chain source request latency by method", obs.DefDurationBuckets, "method")
	}
	return l
}

// observe records one call's outcome.
func (l *leaf) observe(method string, start time.Time, err error) {
	if l.requests == nil {
		return
	}
	l.requests.With(method).Inc()
	l.latency.With(method).ObserveDuration(obs.Since(start))
	if err != nil {
		l.errors.With(method).Inc()
	}
}

// TransactionsOf implements Layer.
func (l *leaf) TransactionsOf(_ context.Context, addr ethtypes.Address) ([]ethtypes.Hash, error) {
	start := obs.Now()
	out, err := l.src.TransactionsOf(addr)
	l.observe("TransactionsOf", start, err)
	return out, err
}

// IsContract implements Layer.
func (l *leaf) IsContract(_ context.Context, addr ethtypes.Address) (bool, error) {
	start := obs.Now()
	out, err := l.src.IsContract(addr)
	l.observe("IsContract", start, err)
	return out, err
}

// Code implements Layer; a source without bytecode fails the read.
func (l *leaf) Code(_ context.Context, addr ethtypes.Address) ([]byte, error) {
	if l.code == nil {
		return nil, fmt.Errorf("core: source %T does not serve bytecode", l.src)
	}
	start := obs.Now()
	out, err := l.code.Code(addr)
	l.observe("Code", start, err)
	return out, err
}

// Transactions implements Layer.
func (l *leaf) Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	one := func(h ethtypes.Hash) (*chain.Transaction, error) {
		if l.ctx != nil {
			return l.ctx.TransactionContext(ctx, h)
		}
		return l.src.Transaction(h)
	}
	var many func([]ethtypes.Hash) ([]*chain.Transaction, error)
	if l.batch != nil {
		many = l.batch.BatchTransactions
	}
	return leafRead(l, hs, "Transaction", "BatchTransactions", one, many)
}

// Receipts implements Layer.
func (l *leaf) Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	one := func(h ethtypes.Hash) (*chain.Receipt, error) {
		if l.ctx != nil {
			return l.ctx.ReceiptContext(ctx, h)
		}
		return l.src.Receipt(h)
	}
	var many func([]ethtypes.Hash) ([]*chain.Receipt, error)
	if l.batch != nil {
		many = l.batch.BatchReceipts
	}
	return leafRead(l, hs, "Receipt", "BatchReceipts", one, many)
}

// leafRead serves hs in one call through many when the source batches
// and hs is not a single hash, and one call per hash through one
// otherwise. It checks the one-result-per-hash contract for the whole
// stack, and turns a single call's ErrQuarantined into a nil entry.
func leafRead[T any](l *leaf, hs []ethtypes.Hash, single, batched string,
	one func(ethtypes.Hash) (T, error), many func([]ethtypes.Hash) ([]T, error)) ([]T, error) {
	if many != nil && len(hs) != 1 {
		start := obs.Now()
		out, err := many(hs)
		l.observe(batched, start, err)
		if err != nil {
			return nil, err
		}
		if len(out) != len(hs) {
			return nil, fmt.Errorf("core: source %T returned %d results for %d hashes", l.src, len(out), len(hs))
		}
		return out, nil
	}
	out := make([]T, len(hs))
	for i, h := range hs {
		start := obs.Now()
		v, err := one(h)
		l.observe(single, start, err)
		if errors.Is(err, ErrQuarantined) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Top adapts a Layer back to ChainSource. It is the only stack type
// that implements ChainSource and its ContextSource, BatchSource and
// CodeSource extensions: a single read is a one-hash batch, and a nil
// entry from a single read becomes an error wrapping ErrQuarantined.
type Top struct {
	l Layer
}

// NewTop puts a ChainSource face on a stack of layers.
func NewTop(l Layer) *Top { return &Top{l: l} }

// layer is what LayerOf reads through.
func (t *Top) layer() Layer { return t.l }

// TransactionsOf implements ChainSource.
func (t *Top) TransactionsOf(addr ethtypes.Address) ([]ethtypes.Hash, error) {
	return t.l.TransactionsOf(context.Background(), addr)
}

// IsContract implements ChainSource.
func (t *Top) IsContract(addr ethtypes.Address) (bool, error) {
	return t.l.IsContract(context.Background(), addr)
}

// Code implements CodeSource.
func (t *Top) Code(addr ethtypes.Address) ([]byte, error) {
	return t.l.Code(context.Background(), addr)
}

// Transaction implements ChainSource.
func (t *Top) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	return t.TransactionContext(context.Background(), h)
}

// Receipt implements ChainSource.
func (t *Top) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	return t.ReceiptContext(context.Background(), h)
}

// TransactionContext implements ContextSource.
func (t *Top) TransactionContext(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, error) {
	return readOne(ctx, h, "transaction", t.l.Transactions)
}

// ReceiptContext implements ContextSource.
func (t *Top) ReceiptContext(ctx context.Context, h ethtypes.Hash) (*chain.Receipt, error) {
	return readOne(ctx, h, "receipt", t.l.Receipts)
}

// BatchTransactions implements BatchSource.
func (t *Top) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	return t.l.Transactions(context.Background(), hs)
}

// BatchReceipts implements BatchSource.
func (t *Top) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	return t.l.Receipts(context.Background(), hs)
}

// readOne is a single read as a one-hash batch.
func readOne[T comparable](ctx context.Context, h ethtypes.Hash, what string,
	read func(context.Context, []ethtypes.Hash) ([]T, error)) (T, error) {
	var zero T
	out, err := read(ctx, []ethtypes.Hash{h})
	if err != nil {
		return zero, err
	}
	if out[0] == zero {
		return zero, fmt.Errorf("core: %s %s: %w", what, h, ErrQuarantined)
	}
	return out[0], nil
}
