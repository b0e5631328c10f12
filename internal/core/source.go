// Package core implements the paper's primary contribution: the
// profit-sharing transaction classifier (§4.3, §5.1 Step 2), the
// snowball-sampling dataset builder (§5.1), and the sampling-based
// validation harness (§5.2). It consumes chain data through the
// ChainSource interface, so the same pipeline runs in-process against
// a simulated chain or remotely over JSON-RPC.
package core

import (
	"context"

	"repro/internal/chain"
	"repro/internal/ethtypes"
)

// ChainSource is the read-only view of an Ethereum-like chain the
// pipeline needs. internal/chain satisfies it via LocalSource;
// internal/rpc's client satisfies it over HTTP.
type ChainSource interface {
	// TransactionsOf returns, in chronological order, the hashes of all
	// transactions touching an account.
	TransactionsOf(addr ethtypes.Address) ([]ethtypes.Hash, error)
	// Transaction fetches a transaction by hash.
	Transaction(h ethtypes.Hash) (*chain.Transaction, error)
	// Receipt fetches the execution receipt (with fund-flow transfers)
	// by transaction hash.
	Receipt(h ethtypes.Hash) (*chain.Receipt, error)
	// IsContract reports whether the address hosts code.
	IsContract(addr ethtypes.Address) (bool, error)
}

// ContextSource is an optional ChainSource extension: sources whose
// single-object fetches can be cancelled mid-flight, so that
// cancel-on-first-error aborts in-flight HTTP requests instead of
// letting them run to their transport timeout. A source stack's top
// (Top) implements it, and its leaf (NewLeaf) uses the source's, so
// the capability survives wrapping.
type ContextSource interface {
	TransactionContext(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, error)
	ReceiptContext(ctx context.Context, h ethtypes.Hash) (*chain.Receipt, error)
}

// BatchSource is an optional ChainSource extension: sources that can
// serve many transactions or receipts in one round trip (JSON-RPC
// array batching, bulk DB reads), so a frontier scan's N fetches
// collapse into a handful of calls.
//
// Implementations must return exactly one result per requested hash,
// in request order. A source stack's top (Top) implements it, and its
// leaf (NewLeaf) degrades to per-item calls when the source cannot
// batch, so batching composes through wrapping.
type BatchSource interface {
	BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error)
	BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error)
}

// CodeSource is an optional ChainSource extension: sources that serve
// runtime bytecode. Both LocalSource and the JSON-RPC client
// implement it.
type CodeSource interface {
	Code(addr ethtypes.Address) ([]byte, error)
}

// StorageSource is an optional ChainSource extension: sources that
// serve contract storage. LocalSource implements it.
type StorageSource interface {
	StorageAt(addr ethtypes.Address, key ethtypes.Hash) ethtypes.Hash
}

// LocalSource adapts an in-process chain to ChainSource.
type LocalSource struct {
	Chain *chain.Chain
}

// TransactionsOf implements ChainSource.
func (s LocalSource) TransactionsOf(addr ethtypes.Address) ([]ethtypes.Hash, error) {
	return s.Chain.TransactionsOf(addr), nil
}

// Transaction implements ChainSource.
func (s LocalSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	return s.Chain.Transaction(h)
}

// Receipt implements ChainSource.
func (s LocalSource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	return s.Chain.Receipt(h)
}

// IsContract implements ChainSource.
func (s LocalSource) IsContract(addr ethtypes.Address) (bool, error) {
	return s.Chain.IsContract(addr), nil
}

// Code implements CodeSource.
func (s LocalSource) Code(addr ethtypes.Address) ([]byte, error) {
	return s.Chain.CodeAt(addr), nil
}

// StorageAt implements StorageSource.
func (s LocalSource) StorageAt(addr ethtypes.Address, key ethtypes.Hash) ethtypes.Hash {
	return s.Chain.StorageAt(addr, key)
}
