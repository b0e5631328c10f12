package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/screen"
)

// ScreenFunc answers one batch of addresses with listed flags, one per
// address in input order. It abstracts the screening backend so the
// same schedule can drive an in-process screen.Engine or a remote
// daas_screenBatch endpoint.
type ScreenFunc func(addrs []ethtypes.Address) ([]bool, error)

// EngineScreener adapts a screen.Engine into a ScreenFunc.
func EngineScreener(eng *screen.Engine) ScreenFunc {
	return func(addrs []ethtypes.Address) ([]bool, error) {
		out := make([]bool, len(addrs))
		for i, a := range addrs {
			_, out[i] = eng.Screen(a)
		}
		return out, nil
	}
}

// ScreenConfig tunes one screening load run.
type ScreenConfig struct {
	// Seed fully determines the batch schedule.
	Seed uint64
	// Batches is the number of screenBatch calls to issue.
	Batches int
	// BatchSize is the addresses per call.
	BatchSize int
	// Concurrency is the closed-loop worker count (default 1): each
	// worker issues its next batch as soon as the previous one returns.
	Concurrency int
	// Registry receives the daas_loadgen_screen_* instruments; nil uses
	// a private registry.
	Registry *obs.Registry
}

// ScreenGenerator drives a screening backend with a deterministic
// batch schedule drawn from a fixed address universe.
type ScreenGenerator struct {
	// Screen is the backend under test.
	Screen ScreenFunc
	// Addresses is the target universe; schedule picks are indexes into
	// it, so the caller controls the listed/clean mix by construction.
	Addresses []ethtypes.Address
	Config    ScreenConfig
	// Swapper, when non-nil, runs in a background goroutine for the
	// duration of the run (e.g. rebuilding and swapping the engine
	// snapshot in a tight loop) — the swap-under-load scenario. The
	// result's SwapCount reports how many invocations completed.
	Swapper func()
}

// ScreenSchedule materializes the per-batch target indexes: a pure
// function of (Seed, Batches, BatchSize, len(Addresses)).
func (g *ScreenGenerator) ScreenSchedule() ([][]int, error) {
	if g.Config.Batches <= 0 || g.Config.BatchSize <= 0 {
		return nil, fmt.Errorf("loadgen: Batches and BatchSize must be positive")
	}
	if len(g.Addresses) == 0 {
		return nil, fmt.Errorf("loadgen: screening address universe is empty")
	}
	r := &rng{state: g.Config.Seed}
	out := make([][]int, g.Config.Batches)
	for i := range out {
		idxs := make([]int, g.Config.BatchSize)
		for j := range idxs {
			idxs[j] = r.intn(len(g.Addresses))
		}
		out[i] = idxs
	}
	return out, nil
}

// ScreenRunResult is one screening run's outcome. Verdicts holds every
// lookup's listed flag in schedule order (batch-major), regardless of
// the order batches actually executed — the byte-identical contract:
// a run under snapshot churn must produce exactly the verdicts of an
// unloaded run over the same logical blacklist.
type ScreenRunResult struct {
	Seed            uint64  `json:"seed"`
	Batches         int     `json:"batches"`
	BatchSize       int     `json:"batch_size"`
	Errors          int     `json:"errors"`
	Concurrency     int     `json:"concurrency"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	AchievedBatches float64 `json:"achieved_batches_s"`
	AchievedLookups float64 `json:"achieved_lookups_s"`
	Listed          uint64  `json:"listed"`
	BatchP50Seconds float64 `json:"batch_p50_seconds"`
	BatchP95Seconds float64 `json:"batch_p95_seconds"`
	BatchP99Seconds float64 `json:"batch_p99_seconds"`
	// SwapCount reports completed Swapper invocations during the run.
	SwapCount int `json:"swap_count,omitempty"`

	Verdicts []bool `json:"-"`
}

// Run executes the configured schedule and reports the outcome.
func (g *ScreenGenerator) Run() (*ScreenRunResult, error) {
	if g.Screen == nil {
		return nil, fmt.Errorf("loadgen: no screening backend")
	}
	schedule, err := g.ScreenSchedule()
	if err != nil {
		return nil, err
	}
	workers := g.Config.Concurrency
	if workers <= 0 {
		workers = 1
	}
	reg := g.Config.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	batches := reg.Counter("daas_loadgen_screen_batches_total", "screening batches issued")
	batchErrors := reg.Counter("daas_loadgen_screen_batch_errors_total", "failed screening batches")
	listed := reg.Counter("daas_loadgen_screen_listed_total", "listed verdicts returned")
	duration := reg.Histogram("daas_loadgen_screen_batch_duration_seconds", "screening batch latency", obs.DefDurationBuckets)
	base := reg.Snapshot()

	verdicts := make([]bool, g.Config.Batches*g.Config.BatchSize)
	var errCount atomic.Int64
	runOne := func(bi int) {
		idxs := schedule[bi]
		addrs := make([]ethtypes.Address, len(idxs))
		for j, k := range idxs {
			addrs[j] = g.Addresses[k]
		}
		start := obs.Now()
		flags, err := g.Screen(addrs)
		duration.ObserveDuration(obs.Since(start))
		batches.Inc()
		if err == nil && len(flags) != len(addrs) {
			err = fmt.Errorf("loadgen: %d verdicts for %d addresses", len(flags), len(addrs))
		}
		if err != nil {
			batchErrors.Inc()
			errCount.Add(1)
			return
		}
		// Each batch owns its disjoint slice of the verdict vector, so
		// concurrent workers never write the same element.
		for j, f := range flags {
			verdicts[bi*g.Config.BatchSize+j] = f
			if f {
				listed.Inc()
			}
		}
	}

	var stopSwapper func() int
	if g.Swapper != nil {
		stop := make(chan struct{})
		counted := make(chan int, 1)
		go func() {
			n := 0
			for {
				select {
				case <-stop:
					counted <- n
					return
				default:
					g.Swapper()
					n++
				}
			}
		}()
		stopSwapper = func() int {
			close(stop)
			return <-counted
		}
	}

	start := obs.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for bi := w; bi < len(schedule); bi += workers {
				runOne(bi)
			}
		}(w)
	}
	wg.Wait()
	elapsed := obs.Since(start)
	var swapCount int
	if stopSwapper != nil {
		swapCount = stopSwapper()
	}

	snap := reg.Snapshot().Diff(base)
	res := &ScreenRunResult{
		Seed:           g.Config.Seed,
		Batches:        g.Config.Batches,
		BatchSize:      g.Config.BatchSize,
		Errors:         int(errCount.Load()),
		Concurrency:    workers,
		ElapsedSeconds: elapsed.Seconds(),
		SwapCount:      swapCount,
		Verdicts:       verdicts,
	}
	if res.ElapsedSeconds > 0 {
		res.AchievedBatches = float64(res.Batches) / res.ElapsedSeconds
		res.AchievedLookups = float64(res.Batches*res.BatchSize) / res.ElapsedSeconds
	}
	if s := snap.Find("daas_loadgen_screen_listed_total"); s != nil {
		res.Listed = s.Counter
	}
	if s := snap.Find("daas_loadgen_screen_batch_duration_seconds"); s != nil && s.Hist != nil && s.Hist.Count > 0 {
		res.BatchP50Seconds = s.Hist.Quantile(0.50)
		res.BatchP95Seconds = s.Hist.Quantile(0.95)
		res.BatchP99Seconds = s.Hist.Quantile(0.99)
	}
	return res, nil
}
