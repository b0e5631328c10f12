package fetchcache_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/fetchcache"
	"repro/internal/obs"
)

// countingSource fabricates a distinct transaction/receipt per hash
// and counts underlying fetches.
type countingSource struct {
	txCalls    atomic.Int64
	recCalls   atomic.Int64
	batchCalls atomic.Int64
	fail       atomic.Bool
	gate       chan struct{} // when set, Transaction blocks until closed
}

func (s *countingSource) TransactionsOf(ethtypes.Address) ([]ethtypes.Hash, error) { return nil, nil }
func (s *countingSource) IsContract(ethtypes.Address) (bool, error)                { return false, nil }

func (s *countingSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	if s.gate != nil {
		<-s.gate
	}
	s.txCalls.Add(1)
	if s.fail.Load() {
		return nil, errors.New("injected failure")
	}
	return &chain.Transaction{Nonce: uint64(h[0])<<8 | uint64(h[1])}, nil
}

func (s *countingSource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	s.recCalls.Add(1)
	if s.fail.Load() {
		return nil, errors.New("injected failure")
	}
	return &chain.Receipt{TxHash: h, BlockNumber: uint64(h[0])}, nil
}

// batchingSource adds native batching on top of countingSource and
// remembers the size of every batch it served.
type batchingSource struct {
	countingSource
	mu     sync.Mutex
	served [][]ethtypes.Hash
}

func (s *batchingSource) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	s.batchCalls.Add(1)
	s.mu.Lock()
	s.served = append(s.served, append([]ethtypes.Hash(nil), hs...))
	s.mu.Unlock()
	out := make([]*chain.Transaction, len(hs))
	for i, h := range hs {
		tx, err := s.countingSource.Transaction(h)
		if err != nil {
			return nil, err
		}
		out[i] = tx
	}
	return out, nil
}

func (s *batchingSource) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	s.batchCalls.Add(1)
	out := make([]*chain.Receipt, len(hs))
	for i, h := range hs {
		rec, err := s.countingSource.Receipt(h)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// cached is a cache layer with its ChainSource face, so a test can read
// through the top and inspect the layer.
type cached struct {
	*core.Top
	*fetchcache.Cache
}

func newCached(src core.ChainSource, capacity int, reg *obs.Registry) cached {
	c := fetchcache.NewCache(core.NewLeaf(src, nil), capacity, reg)
	return cached{core.NewTop(c), c}
}

func hash(b ...byte) ethtypes.Hash {
	var h ethtypes.Hash
	copy(h[:], b)
	return h
}

func counter(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	return reg.Counter(name, "").Value()
}

func TestHitMissAndValueFidelity(t *testing.T) {
	src := &countingSource{}
	reg := obs.NewRegistry()
	c := newCached(src, 0, reg)

	h := hash(1, 2)
	tx1, err := c.Transaction(h)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := c.Transaction(h)
	if err != nil {
		t.Fatal(err)
	}
	if tx1 != tx2 || tx1.Nonce != 1<<8|2 {
		t.Errorf("cached transaction differs: %p %p", tx1, tx2)
	}
	if got := src.txCalls.Load(); got != 1 {
		t.Errorf("underlying Transaction called %d times, want 1", got)
	}
	if _, err := c.Receipt(h); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Receipt(h); err != nil {
		t.Fatal(err)
	}
	if got := src.recCalls.Load(); got != 1 {
		t.Errorf("underlying Receipt called %d times, want 1", got)
	}
	if hits := counter(t, reg, "daas_cache_hits_total"); hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
	if misses := counter(t, reg, "daas_cache_misses_total"); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
}

func TestSingleFlight(t *testing.T) {
	src := &countingSource{gate: make(chan struct{})}
	c := newCached(src, 0, nil)

	const n = 16
	var wg sync.WaitGroup
	results := make([]*chain.Transaction, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := c.Transaction(hash(7))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = tx
		}(i)
	}
	close(src.gate) // release the one fetch all goroutines share
	wg.Wait()
	if got := src.txCalls.Load(); got != 1 {
		t.Errorf("single-flight leaked: %d underlying fetches, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d saw a different object", i)
		}
	}
}

func TestEvictionBound(t *testing.T) {
	src := &countingSource{}
	reg := obs.NewRegistry()
	// Capacity 32 over 32 shards = 1 entry per shard: two same-shard
	// transactions (same leading hash byte) must displace each other.
	c := newCached(src, 32, reg)

	a, b := hash(5, 1), hash(5, 2)
	if _, err := c.Transaction(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transaction(b); err != nil {
		t.Fatal(err)
	}
	if ev := counter(t, reg, "daas_cache_evictions_total"); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// a was the cold entry; re-reading it is a fresh miss.
	if _, err := c.Transaction(a); err != nil {
		t.Fatal(err)
	}
	if got := src.txCalls.Load(); got != 3 {
		t.Errorf("underlying Transaction called %d times, want 3 (evicted entry refetched)", got)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// TestUnboundedHoldsEverything: a non-positive capacity keeps every
// settled record, so a second pass over more same-shard hashes than a
// 64k-entry cache gives one shard is all hits and nothing is evicted.
func TestUnboundedHoldsEverything(t *testing.T) {
	src := &countingSource{}
	reg := obs.NewRegistry()
	c := newCached(src, 0, reg)
	const n = 3000
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if _, err := c.Transaction(hash(5, byte(i>>8), byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := src.txCalls.Load(); got != n {
		t.Errorf("underlying Transaction called %d times, want %d", got, n)
	}
	if c.Len() != n {
		t.Errorf("cache holds %d entries, want %d", c.Len(), n)
	}
	if ev := counter(t, reg, "daas_cache_evictions_total"); ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	src := &countingSource{}
	src.fail.Store(true)
	c := newCached(src, 0, nil)

	if _, err := c.Transaction(hash(9)); err == nil {
		t.Fatal("expected injected failure")
	}
	src.fail.Store(false)
	tx, err := c.Transaction(hash(9))
	if err != nil {
		t.Fatalf("failure was cached: %v", err)
	}
	if tx == nil || src.txCalls.Load() != 2 {
		t.Errorf("retry did not refetch: calls=%d", src.txCalls.Load())
	}
}

func TestBatchFetchesOnlyMisses(t *testing.T) {
	src := &batchingSource{}
	c := newCached(src, 0, nil)

	warm := []ethtypes.Hash{hash(1), hash(2)}
	if _, err := c.BatchTransactions(warm); err != nil {
		t.Fatal(err)
	}
	all := []ethtypes.Hash{hash(1), hash(2), hash(3), hash(4)}
	out, err := c.BatchTransactions(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d results", len(out))
	}
	for i, h := range all {
		if out[i] == nil || out[i].Nonce != uint64(h[0])<<8 {
			t.Errorf("result %d wrong: %+v", i, out[i])
		}
	}
	src.mu.Lock()
	last := src.served[len(src.served)-1]
	src.mu.Unlock()
	if len(last) != 2 || last[0] != hash(3) || last[1] != hash(4) {
		t.Errorf("second batch fetched %v, want only the two misses", last)
	}
	if got := src.txCalls.Load(); got != 4 {
		t.Errorf("underlying fetches = %d, want 4", got)
	}
}

func TestBatchWithoutNativeBatching(t *testing.T) {
	src := &countingSource{}
	c := newCached(src, 0, nil)
	hs := []ethtypes.Hash{hash(1), hash(2), hash(1)} // duplicate in one call
	out, err := c.BatchReceipts(hs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != out[2] {
		t.Error("duplicate hash resolved to different objects")
	}
	if got := src.recCalls.Load(); got != 2 {
		t.Errorf("underlying Receipt called %d times, want 2", got)
	}
}

func TestBatchErrorPropagatesAndRetries(t *testing.T) {
	src := &batchingSource{}
	src.fail.Store(true)
	c := newCached(src, 0, nil)
	if _, err := c.BatchTransactions([]ethtypes.Hash{hash(1), hash(2)}); err == nil {
		t.Fatal("expected batch failure")
	}
	src.fail.Store(false)
	out, err := c.BatchTransactions([]ethtypes.Hash{hash(1), hash(2)})
	if err != nil || len(out) != 2 {
		t.Fatalf("retry after failed batch: %v", err)
	}
}

// TestConcurrentMixedAccess exercises every read path at once under
// the race detector: overlapping singles, batches, and evictions.
func TestConcurrentMixedAccess(t *testing.T) {
	src := &batchingSource{}
	reg := obs.NewRegistry()
	c := newCached(src, 64, reg) // tiny: constant eviction churn

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := hash(byte(i%13), byte(g))
				switch i % 3 {
				case 0:
					tx, err := c.Transaction(h)
					if err != nil || tx.Nonce != uint64(h[0])<<8|uint64(h[1]) {
						t.Errorf("tx mismatch: %v %v", tx, err)
						return
					}
				case 1:
					rec, err := c.Receipt(h)
					if err != nil || rec.TxHash != h {
						t.Errorf("receipt mismatch: %v %v", rec, err)
						return
					}
				default:
					hs := []ethtypes.Hash{h, hash(byte(i % 7)), h}
					out, err := c.BatchTransactions(hs)
					if err != nil || len(out) != 3 {
						t.Errorf("batch mismatch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("cache exceeded capacity: %d entries", c.Len())
	}
	if counter(t, reg, "daas_cache_hits_total") == 0 {
		t.Error("no hits under churn; workload degenerate")
	}
}

// TestPassthroughs covers the uncached surface.
func TestPassthroughs(t *testing.T) {
	world := &countingSource{}
	c := newCached(world, 0, nil)
	if _, err := c.TransactionsOf(ethtypes.Address{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IsContract(ethtypes.Address{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Code(ethtypes.Address{}); err == nil {
		t.Error("Code on a non-CodeSource should error")
	}
	// Interface assertions the pipeline relies on.
	var _ core.ChainSource = c
	var _ core.BatchSource = c
	var _ core.CodeSource = c
	_ = fmt.Sprintf("%T", c)
}

// gatedSource blocks each Transaction fetch until its hash's gate is
// closed, then fails it with that hash's own error.
type gatedSource struct {
	countingSource
	started chan ethtypes.Hash
	gates   map[ethtypes.Hash]chan struct{}
	errs    map[ethtypes.Hash]error
}

func (s *gatedSource) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	s.started <- h
	<-s.gates[h]
	return nil, s.errs[h]
}

// TestBatchErrorIsLowestIndex: a batch that waits on two in-flight
// entries, both failing, returns the error of the lower index — every
// time, whichever owner settles first.
func TestBatchErrorIsLowestIndex(t *testing.T) {
	a, b := hash(1), hash(2)
	errA, errB := errors.New("a failed"), errors.New("b failed")
	for run := 0; run < 100; run++ {
		src := &gatedSource{
			started: make(chan ethtypes.Hash, 2),
			gates:   map[ethtypes.Hash]chan struct{}{a: make(chan struct{}), b: make(chan struct{})},
			errs:    map[ethtypes.Hash]error{a: errA, b: errB},
		}
		reg := obs.NewRegistry()
		c := newCached(src, 0, reg)
		var owners sync.WaitGroup
		for _, h := range []ethtypes.Hash{a, b} {
			owners.Add(1)
			go func() {
				defer owners.Done()
				_, _ = c.Transaction(h)
			}()
		}
		<-src.started
		<-src.started
		done := make(chan error, 1)
		go func() {
			_, err := c.BatchTransactions([]ethtypes.Hash{a, b})
			done <- err
		}()
		for counter(t, reg, "daas_cache_hits_total") < 2 {
			runtime.Gosched()
		}
		close(src.gates[b])
		close(src.gates[a])
		if err := <-done; err != errA {
			t.Fatalf("run %d: batch error = %v, want %v", run, err, errA)
		}
		owners.Wait()
	}
}

// TestBatchWaiterGivesUpOnCancel: a batch read waiting on an entry
// another goroutine owns returns when its own context is cancelled.
func TestBatchWaiterGivesUpOnCancel(t *testing.T) {
	a := hash(1)
	src := &gatedSource{
		started: make(chan ethtypes.Hash, 1),
		gates:   map[ethtypes.Hash]chan struct{}{a: make(chan struct{})},
	}
	c := fetchcache.NewCache(core.NewLeaf(src, nil), 0, nil)
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		_, _ = c.Transactions(context.Background(), []ethtypes.Hash{a})
	}()
	<-src.started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Transactions(ctx, []ethtypes.Hash{a, a}); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
	close(src.gates[a])
	<-owner
}
