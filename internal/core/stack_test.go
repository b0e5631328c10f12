package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
)

// quarantinedSource is a plain source (no batching, no context) that
// refuses one transaction with ErrQuarantined.
type quarantinedSource struct {
	core.LocalSource
	refused ethtypes.Hash
}

func (s quarantinedSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	if h == s.refused {
		return nil, fmt.Errorf("test: %s: %w", h, core.ErrQuarantined)
	}
	return s.LocalSource.Transaction(h)
}

// TestLeafQuarantineIsNilEntry reads a batch through a leaf over a
// plain source that refuses its middle hash: the refused record comes
// back as a nil entry, the batch as a whole does not fail, and a
// one-hash read of it is a nil entry too.
func TestLeafQuarantineIsNilEntry(t *testing.T) {
	ds := buildDataset(t, sharedWorld)
	var hs []ethtypes.Hash
	for h := range ds.Splits {
		if hs = append(hs, h); len(hs) == 3 {
			break
		}
	}
	if len(hs) != 3 {
		t.Fatalf("world has %d split transactions, want at least 3", len(hs))
	}
	leaf := core.LayerOf(quarantinedSource{core.LocalSource{Chain: sharedWorld.Chain}, hs[1]})
	txs, err := leaf.Transactions(context.Background(), hs)
	if err != nil {
		t.Fatal(err)
	}
	if txs[0] == nil || txs[1] != nil || txs[2] == nil {
		t.Fatalf("entries nil = [%v %v %v], want [false true false]", txs[0] == nil, txs[1] == nil, txs[2] == nil)
	}
	one, err := leaf.Transactions(context.Background(), hs[1:2])
	if err != nil || one[0] != nil {
		t.Fatalf("one-hash read of the refused record = %v, %v; want a nil entry", one[0], err)
	}
}

// barrierSource is a plain source whose Transaction blocks until n
// calls are in flight at once, and fails after a timeout if they never
// are: a fetch that serializes a plain source cannot get past it.
type barrierSource struct {
	core.LocalSource
	n int

	mu       sync.Mutex
	inFlight int
	opened   bool
	open     chan struct{}
}

func (s *barrierSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	s.mu.Lock()
	if s.inFlight++; s.inFlight == s.n && !s.opened {
		s.opened = true
		close(s.open)
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	select {
	case <-s.open:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("test: %d reads of a plain source were never in flight at once", s.n)
	}
	return s.LocalSource.Transaction(h)
}

// TestPlainSourceFetchFansOut builds over a source that can neither
// batch nor cancel: with Concurrency n, one contract's history is read
// on n workers at once, so the build gets past the barrier.
func TestPlainSourceFetchFansOut(t *testing.T) {
	const n = 4
	w := sharedWorld
	var first ethtypes.Address
	for _, a := range w.Labels.AllPhishing() {
		if w.Chain.IsContract(a) {
			first = a
			break
		}
	}
	// The first seed contract's absorb is the build's first fetch: it
	// must have n records to read at once.
	if got := len(w.Chain.TransactionsOf(first)); got < n {
		t.Fatalf("first seed contract has %d transactions, want at least %d", got, n)
	}
	src := &barrierSource{LocalSource: core.LocalSource{Chain: w.Chain}, n: n, open: make(chan struct{})}
	got, err := (&core.Pipeline{Source: src, Labels: w.Labels, Concurrency: n}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != buildDataset(t, w).Stats() {
		t.Fatalf("fanned-out build stats %+v differ from the serial build's", got.Stats())
	}
}
