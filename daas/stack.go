package daas

import (
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
	// CacheSize, when positive, puts a fetch cache of that many
	// entries on top of the build's stack.
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
// attempts. The cache is outermost: it stores only validated records,
// never a failure, and a hit spends no retry budget.
//
// The two tops share one integrity layer, so the transaction pins and
// permanent quarantines of the build persist through validation,
// clustering and measurement.
type Stack struct {
	// Cached is the dataset build's top: the fetch cache over the
	// integrity layer, or Checked itself when CacheSize is not
	// positive.
	Cached core.ChainSource
	// Checked is the uncached top over the integrity layer, for reads
	// whose records may outlive a cache entry's validity (validation,
	// clustering, measurement, and the radar, where a cached receipt
	// would outlive a reorg). It is also the handle that releases reorg
	// pins and exposes the quarantine.
	Checked *integrity.Source
}

// NewStack is the one place that fixes the layer order over src.
func NewStack(src core.ChainSource, cfg StackConfig) *Stack {
	below := retry.NewLayer(core.NewLeaf(src, cfg.Metrics), cfg.RetryPolicy)
	checked := integrity.NewSource(below, nil, cfg.Metrics)
	checked.MaxRefetch = cfg.MaxRefetch
	checked.MaxQuarantine = cfg.MaxQuarantine
	st := &Stack{Cached: checked, Checked: checked}
	if cfg.CacheSize > 0 {
		st.Cached = core.NewTop(fetchcache.NewCache(checked.Validator, cfg.CacheSize, cfg.Metrics))
	}
	return st
}
