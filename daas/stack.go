package daas

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fetchcache"
	"repro/internal/integrity"
	"repro/internal/obs"
)

// StackConfig carries the settings of the chain-source stack.
type StackConfig struct {
	// Metrics, when set, receives daas_chain_* per-method request
	// metrics from the leaf and the integrity and cache instruments.
	Metrics *obs.Registry
	// CacheSize, when positive, bounds the fetch cache on top of the
	// stack to that many entries (LRU); otherwise the cache holds every
	// record it serves for the stack's lifetime.
	CacheSize int
	// MaxQuarantine, when positive, fails the run once total quarantine
	// rejections exceed it (see integrity.Validator).
	MaxQuarantine int64
}

// Stack is one chain source assembled in the production order:
//
//	cache → integrity → metrics → leaf
//
// Metrics sit innermost, so daas_chain_* counts real fetches, not
// cache hits. Integrity sits above them, so every re-fetch of a
// corrupt record is a counted fetch. The cache is outermost: it stores
// only records the integrity layer settled (a permanently quarantined
// one stays nil), and never a failure. Retries are not a layer: a
// remote leaf (rpc.Client) retries transient wire failures itself, so
// each read the stack sees has already succeeded or run out of tries.
//
// The two tops share one integrity layer, so its transaction pins and
// permanent quarantines are the same whichever top a stage reads.
type Stack struct {
	// Checked is the uncached top over the integrity layer, for reads
	// whose records may outlive a cache entry's validity: the radar,
	// where a cached receipt would outlive a reorg. It is also the
	// handle that releases reorg pins and exposes the quarantine.
	Checked *integrity.Source

	cfg        StackConfig
	cachedOnce sync.Once
	cached     core.ChainSource
}

// NewStack is the one place that fixes the layer order over src.
func NewStack(src core.ChainSource, cfg StackConfig) *Stack {
	checked := integrity.NewSource(core.NewLeaf(src, cfg.Metrics), nil, cfg.Metrics)
	checked.MaxQuarantine = cfg.MaxQuarantine
	return &Stack{Checked: checked, cfg: cfg}
}

// Cached is the study's record store: the fetch cache over the
// integrity layer. The dataset build, the §5.2 validation, clustering
// and measurement all read through it, so each transaction and
// receipt is fetched and checked once per study (when CacheSize does
// not bound it), and every later stage sees exactly the record the
// build admitted. The cache and its counters are made on the first
// call, so a stack read only through Checked has neither.
func (s *Stack) Cached() core.ChainSource {
	s.cachedOnce.Do(func() {
		s.cached = core.NewTop(fetchcache.NewCache(s.Checked.Validator, s.cfg.CacheSize, s.cfg.Metrics))
	})
	return s.cached
}
