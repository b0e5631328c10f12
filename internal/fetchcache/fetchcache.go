// Package fetchcache is the chain-source stack's cache layer: a
// sharded transaction+receipt cache with single-flight deduplication,
// either size-bounded (LRU) or holding every record for its lifetime.
// The snowball pipeline re-reads the same hashes across expansion
// passes (a contract absorb walks a history the frontier scan
// partially fetched moments earlier), with parallel scanners two
// workers can race toward the same hash, and a study's validation,
// clustering and measurement re-read what the build fetched; the cache
// turns each into at most one fetch per object.
//
// Only immutable objects are cached: a confirmed transaction and its
// receipt never change, so entries need no TTL. Account histories
// (TransactionsOf) and code/contract checks grow with the chain and
// pass straight through.
package fetchcache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
)

// nShards fixes the mutex striping; a power of two so the shard pick
// is a mask. 32 stripes keep contention negligible at the pipeline's
// worker counts (≤ dozens) without bloating the struct.
const nShards = 32

const (
	kindTx byte = iota
	kindReceipt
)

type key struct {
	kind byte
	h    ethtypes.Hash
}

// entry is one cached or in-flight fetch. ready is closed once val/err
// are settled; waiters hold the pointer, so eviction never invalidates
// a read in progress.
type entry struct {
	ready chan struct{}
	val   any // *chain.Transaction or *chain.Receipt
	err   error
	elem  *list.Element // LRU position; nil while in flight or unbounded
}

type shard struct {
	mu      sync.Mutex
	entries map[key]*entry
	lru     *list.List // of key; front = most recently used; nil when unbounded
	held    int        // settled entries
}

// Cache is the fetch-cache layer of a chain-source stack.
type Cache struct {
	core.Layer
	shards      [nShards]shard
	perShardCap int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// NewCache puts a cache of at most capacity entries over below (one
// entry per transaction or receipt), registering hit/miss/eviction
// counters in reg (nil reg means no-op instruments). A non-positive
// capacity means unbounded: every record read through the cache stays
// in it for the cache's lifetime, with no LRU bookkeeping.
func NewCache(below core.Layer, capacity int, reg *obs.Registry) *Cache {
	per := 0
	if capacity > 0 {
		per = (capacity + nShards - 1) / nShards
	}
	c := &Cache{
		Layer:       below,
		perShardCap: per,
		hits:        reg.Counter("daas_cache_hits_total", "fetch cache hits (including waits on an in-flight fetch)"),
		misses:      reg.Counter("daas_cache_misses_total", "fetch cache misses (fetches issued to the wrapped source)"),
		evictions:   reg.Counter("daas_cache_evictions_total", "fetch cache entries evicted by the size bound"),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
		if per > 0 {
			c.shards[i].lru = list.New()
		}
	}
	return c
}

// Len reports the number of settled entries currently cached.
func (s *Cache) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.held
		sh.mu.Unlock()
	}
	return n
}

func (s *Cache) shard(k key) *shard {
	return &s.shards[int(k.h[0]^k.kind)&(nShards-1)]
}

// lookup returns the entry for k, creating an in-flight one when
// absent. owned reports whether the caller created it and must settle
// it (single-flight: exactly one caller owns a given fetch).
func (s *Cache) lookup(k key) (e *entry, owned bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		if e.elem != nil {
			sh.lru.MoveToFront(e.elem)
		}
		sh.mu.Unlock()
		s.hits.Inc()
		return e, false
	}
	e = &entry{ready: make(chan struct{})}
	sh.entries[k] = e
	sh.mu.Unlock()
	s.misses.Inc()
	return e, true
}

// settle publishes an owned entry's result: failures are dropped from
// the map (waiters still observe the error; later callers retry),
// successes are held, and a bounded cache enters them into the LRU,
// evicting from the cold end past capacity.
func (s *Cache) settle(k key, e *entry, val any, err error) {
	e.val, e.err = val, err
	sh := s.shard(k)
	sh.mu.Lock()
	if err != nil {
		if sh.entries[k] == e {
			delete(sh.entries, k)
		}
	} else if sh.entries[k] == e {
		sh.held++
		if sh.lru != nil {
			e.elem = sh.lru.PushFront(k)
			for sh.held > s.perShardCap {
				cold := sh.lru.Back()
				ck := cold.Value.(key)
				sh.lru.Remove(cold)
				delete(sh.entries, ck)
				sh.held--
				s.evictions.Inc()
			}
		}
	}
	sh.mu.Unlock()
	close(e.ready)
}

// Transactions implements core.Layer: cached hashes are served
// locally, each missing hash is claimed single-flight, and only the
// claimed remainder goes to the layer below.
func (s *Cache) Transactions(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	return get(ctx, s, kindTx, hs, s.Layer.Transactions)
}

// Receipts implements core.Layer; see Transactions.
func (s *Cache) Receipts(ctx context.Context, hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	return get(ctx, s, kindReceipt, hs, s.Layer.Receipts)
}

// get resolves hs[i] → result, claiming misses single-flight and
// reading only the claimed ones through read. A read's failure settles
// the claimed entries as failed, which is never cached. Waiting on
// entries owned by other goroutines happens only after our own are
// settled, so two overlapping batches never deadlock on each other; a
// waiter gives up when its context is cancelled. Waits go in request
// order, so when several of them fail the error returned is the one at
// the lowest index.
func get[T any](ctx context.Context, s *Cache, kind byte, hs []ethtypes.Hash,
	read func(context.Context, []ethtypes.Hash) ([]T, error)) ([]T, error) {
	out := make([]T, len(hs))
	var (
		waitIdx  []int
		waits    []*entry
		ownedIdx []int
		owned    []*entry
		missing  []ethtypes.Hash
	)
	for i, h := range hs {
		e, own := s.lookup(key{kind, h})
		if own {
			ownedIdx = append(ownedIdx, i)
			owned = append(owned, e)
			missing = append(missing, h)
			continue
		}
		waitIdx = append(waitIdx, i)
		waits = append(waits, e)
	}
	if len(missing) > 0 {
		vals, err := read(ctx, missing)
		for j, e := range owned {
			if err != nil {
				s.settle(key{kind, missing[j]}, e, nil, err)
				continue
			}
			s.settle(key{kind, missing[j]}, e, vals[j], nil)
			out[ownedIdx[j]] = vals[j]
		}
		if err != nil {
			return nil, err
		}
	}
	for j, e := range waits {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		out[waitIdx[j]] = e.val.(T)
	}
	return out, nil
}
