package loadgen

import (
	"sync"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// RadarConfig tunes one streaming radar run: the generated chain is
// replayed block-by-block into the live detection daemon while a
// screening sidecar hammers the engine the daemon keeps hot-swapping.
type RadarConfig struct {
	// Seed drives the screening sidecar's batch schedule; the block
	// stream itself is fully determined by the world.
	Seed uint64
}

// The stream's fixed shape.
const (
	// radarStepEvery is how many blocks arrive between radar steps —
	// the arrival batching.
	radarStepEvery = 4
	// radarScreenBatch is the addresses per sidecar screening batch.
	radarScreenBatch = 64
	// radarScreenWorkers is the number of concurrent sidecar workers.
	radarScreenWorkers = 2
)

// RadarRunResult is one streaming run's outcome. The dataset shape
// fields (Blocks through Swaps) are pure functions of the world and
// the arrival batching — any drift between runs is a correctness
// regression. The
// latency and throughput fields measure the stream under concurrent
// screening load.
type RadarRunResult struct {
	Blocks     int    `json:"blocks"`
	Contracts  int    `json:"contracts"`
	Operators  int    `json:"operators"`
	Affiliates int    `json:"affiliates"`
	ProfitTxs  int    `json:"profit_txs"`
	Families   int    `json:"families"`
	Swaps      uint64 `json:"swaps"`

	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	BlocksPerSecond float64 `json:"blocks_s"`
	StepP50Seconds  float64 `json:"step_p50_seconds"`
	StepP99Seconds  float64 `json:"step_p99_seconds"`

	ScreenBatches    uint64  `json:"screen_batches"`
	Listed           uint64  `json:"listed"`
	ScreenP50Seconds float64 `json:"screen_p50_seconds"`
	ScreenP95Seconds float64 `json:"screen_p95_seconds"`
	ScreenP99Seconds float64 `json:"screen_p99_seconds"`
}

// RunRadar replays a generated world through the radar daemon while
// screening batches run against the engine it swaps — the streaming
// analogue of RunPipeline, and the workload behind BENCH_radar.json.
func RunRadar(w *worldgen.World, cfg RadarConfig) (*RadarRunResult, error) {
	reg := obs.NewRegistry()
	stepDur := reg.Histogram("daas_loadgen_radar_step_duration_seconds", "radar step latency during the stream", obs.DefDurationBuckets)
	screenDur := reg.Histogram("daas_loadgen_radar_screen_batch_duration_seconds", "sidecar screening batch latency under swap churn", obs.DefDurationBuckets)
	batches := reg.Counter("daas_loadgen_radar_screen_batches_total", "sidecar screening batches issued")
	listed := reg.Counter("daas_loadgen_radar_listed_total", "listed verdicts returned by the sidecar")

	f := chain.NewFollower(w.Chain)
	dst := f.Chain()
	eng := screen.NewEngine(nil)
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: w.Labels,
		Engine: eng,
	})
	if err != nil {
		return nil, err
	}

	// The sidecar's address universe: every publicly reported phishing
	// address (which the stream progressively lists) plus an equal share
	// of synthetic clean addresses.
	phish := w.Labels.AllPhishing()
	clean := len(phish)
	if clean < 64 {
		clean = 64
	}
	universe := append([]ethtypes.Address{}, phish...)
	for i := 0; i < clean; i++ {
		var a ethtypes.Address
		a[0] = 0xEE
		a[1] = byte(i >> 8)
		a[2] = byte(i)
		universe = append(universe, a)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < radarScreenWorkers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rnd := &rng{state: cfg.Seed + uint64(wkr)*0x9E3779B9}
			batch := make([]ethtypes.Address, radarScreenBatch)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := range batch {
					batch[i] = universe[rnd.intn(len(universe))]
				}
				start := obs.Now()
				for _, a := range batch {
					if _, ok := eng.Screen(a); ok {
						listed.Inc()
					}
				}
				screenDur.ObserveDuration(obs.Since(start))
				batches.Inc()
			}
		}(wkr)
	}

	start := obs.Now()
	blocksSeen := 0
	for {
		advanced := 0
		for advanced < radarStepEvery {
			if _, ok := f.Advance(); !ok {
				break
			}
			advanced++
		}
		if advanced == 0 {
			break
		}
		blocksSeen += advanced
		s := obs.Now()
		if _, err := r.Step(); err != nil {
			close(done)
			wg.Wait()
			return nil, err
		}
		stepDur.ObserveDuration(obs.Since(s))
	}
	elapsed := obs.Since(start)
	close(done)
	wg.Wait()

	st := r.Status()
	snap := reg.Snapshot()
	res := &RadarRunResult{
		Blocks:         blocksSeen,
		Contracts:      st.Stats.Contracts,
		Operators:      st.Stats.Operators,
		Affiliates:     st.Stats.Affiliates,
		ProfitTxs:      st.Stats.ProfitTxs,
		Families:       st.Families,
		Swaps:          st.Swaps,
		ElapsedSeconds: elapsed.Seconds(),
	}
	if res.ElapsedSeconds > 0 {
		res.BlocksPerSecond = float64(blocksSeen) / res.ElapsedSeconds
	}
	if s := snap.Find("daas_loadgen_radar_step_duration_seconds"); s != nil && s.Hist != nil && s.Hist.Count > 0 {
		res.StepP50Seconds = s.Hist.Quantile(0.50)
		res.StepP99Seconds = s.Hist.Quantile(0.99)
	}
	if s := snap.Find("daas_loadgen_radar_screen_batches_total"); s != nil {
		res.ScreenBatches = s.Counter
	}
	if s := snap.Find("daas_loadgen_radar_listed_total"); s != nil {
		res.Listed = s.Counter
	}
	if s := snap.Find("daas_loadgen_radar_screen_batch_duration_seconds"); s != nil && s.Hist != nil && s.Hist.Count > 0 {
		res.ScreenP50Seconds = s.Hist.Quantile(0.50)
		res.ScreenP95Seconds = s.Hist.Quantile(0.95)
		res.ScreenP99Seconds = s.Hist.Quantile(0.99)
	}
	return res, nil
}
