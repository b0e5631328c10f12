package retry

import (
	"context"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// layer is the retry layer of a chain-source stack, so the snowball
// pipeline survives transient source faults (a gateway 5xx, a dropped
// connection) without aborting a multi-hour build. A batch read is
// retried whole: batch reads are idempotent, and the fetch cache (when
// layered above) never caches failures, so a retried batch re-fetches
// exactly the hashes that failed.
type layer struct {
	core.Layer
	policy *Policy
}

// NewLayer puts the policy over below; a nil policy returns below
// unchanged.
func NewLayer(below core.Layer, p *Policy) core.Layer {
	if p == nil {
		return below
	}
	return &layer{Layer: below, policy: p}
}

// do runs one read under the policy.
func do[T any](ctx context.Context, p *Policy, op string, read func() (T, error)) (T, error) {
	var out T
	err := p.Do(ctx, op, func() error {
		var err error
		out, err = read()
		return err
	})
	return out, err
}

// TransactionsOf implements core.Layer.
func (s *layer) TransactionsOf(ctx context.Context, addr ethtypes.Address) ([]ethtypes.Hash, error) {
	return do(ctx, s.policy, "TransactionsOf", func() ([]ethtypes.Hash, error) { return s.Layer.TransactionsOf(ctx, addr) })
}

// IsContract implements core.Layer.
func (s *layer) IsContract(ctx context.Context, addr ethtypes.Address) (bool, error) {
	return do(ctx, s.policy, "IsContract", func() (bool, error) { return s.Layer.IsContract(ctx, addr) })
}

// Code implements core.Layer.
func (s *layer) Code(ctx context.Context, addr ethtypes.Address) ([]byte, error) {
	return do(ctx, s.policy, "Code", func() ([]byte, error) { return s.Layer.Code(ctx, addr) })
}

// Transactions implements core.Layer.
func (s *layer) Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	return do(ctx, s.policy, core.TxOp(hs), func() ([]*chain.Transaction, error) { return s.Layer.Transactions(ctx, hs) })
}

// Receipts implements core.Layer.
func (s *layer) Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	return do(ctx, s.policy, core.ReceiptOp(hs), func() ([]*chain.Receipt, error) { return s.Layer.Receipts(ctx, hs) })
}
