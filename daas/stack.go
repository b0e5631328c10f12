package daas

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fetchcache"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/retry"
)

// StackConfig carries the settings of the chain-source stack.
type StackConfig struct {
	// Metrics, when set, receives daas_chain_* per-method request
	// metrics from the leaf and the integrity, cache and retry
	// instruments.
	Metrics *obs.Registry
	// CacheSize, when positive, bounds the fetch cache on top of the
	// stack to that many entries (LRU); otherwise the cache holds every
	// record it serves for the stack's lifetime.
	CacheSize int
	// RetryPolicy, when set, retries transient leaf failures below the
	// integrity layer.
	RetryPolicy *retry.Policy
	// MaxRefetch and MaxQuarantine tune the integrity layer (see
	// integrity.Validator).
	MaxRefetch    int
	MaxQuarantine int64
}

// Stack is one chain source assembled in the production order:
//
//	cache → integrity → retry → metrics → leaf
//
// Metrics sit innermost, so daas_chain_* counts real fetches, not
// cache hits. Retries come next: each wire attempt is counted, and an
// exhausted retry surfaces one failure. Integrity sits above the
// retries, so every re-fetch of a corrupt record spends real wire
// attempts. The cache is outermost: it stores only records the
// integrity layer settled (a permanently quarantined one stays nil),
// never a failure, and a hit spends no retry budget.
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
	below := retry.NewLayer(core.NewLeaf(src, cfg.Metrics), cfg.RetryPolicy)
	checked := integrity.NewSource(below, nil, cfg.Metrics)
	checked.MaxRefetch = cfg.MaxRefetch
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
