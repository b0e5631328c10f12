package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// ChaosConfig tunes one chaos soak: the hardened RPC server fronting a
// live radar + screening engine is driven with mixed good and hostile
// traffic while the radar's upstream suffers a full outage mid-run.
type ChaosConfig struct {
	// Seed drives the good-traffic address schedule.
	Seed uint64
	// Workers is the number of closed-loop good clients (default 12).
	Workers int
	// Hostiles is the number of concurrent hostile clients per flavor
	// (slowloris, disconnect, malformed, hung keep-alive; default 2).
	Hostiles int
	// ScreenBatchSize is addresses per daas_screenBatch (default 32).
	ScreenBatchSize int
	// StepEvery is blocks per radar step while healthy (default 4).
	StepEvery int
	// OutageBeats and OutagePause shape the injected upstream outage:
	// the source stack stays down for Beats×Pause (default 10×150ms,
	// comfortably past the 1s staleness floor so degraded-mode verdicts
	// are observable).
	OutageBeats int
	OutagePause time.Duration
	// Limits overrides the server's limits; the zero value applies
	// tight chaos defaults (MaxInFlight 2, RequestTimeout 2s) chosen so
	// overload shedding is actually exercised.
	Limits *rpc.Limits
	// Registry receives the chaos instruments; nil uses a private one.
	Registry *obs.Registry
}

// ChaosResult is one soak's outcome. The boolean-as-number fields
// (ShedSeen, StaleSeen, ExportIdentical) plus Panics and BadEnvelopes
// are the gated invariants; the rest is diagnostics.
type ChaosResult struct {
	Accepted      uint64  `json:"accepted"`
	Shed          uint64  `json:"shed"`
	Timeouts      uint64  `json:"timeouts"`
	ConnErrors    uint64  `json:"conn_errors"`
	BadEnvelopes  uint64  `json:"bad_envelopes"`
	ShedRate      float64 `json:"shed_rate"`
	AcceptedP50   float64 `json:"accepted_p50_seconds"`
	AcceptedP99   float64 `json:"accepted_p99_seconds"`
	Panics        uint64  `json:"panics"`
	WriteErrors   uint64  `json:"write_errors"`
	HostileRuns   uint64  `json:"hostile_runs"`
	HostileHeld   uint64  `json:"hostile_held_open"`
	MaxStale      uint64  `json:"max_stale_seconds"`
	FinalStale    uint64  `json:"final_stale_seconds"`
	OutageErrors  uint64  `json:"outage_step_errors"`
	Blocks        int     `json:"blocks"`
	Cursor        uint64  `json:"cursor"`
	CleanShutdown bool    `json:"clean_shutdown"`

	ExportIdentical bool `json:"export_identical"`
}

// outageSwitch flips the radar's whole source stack down and back up.
type outageSwitch struct{ down atomic.Bool }

var errOutage = fmt.Errorf("loadgen: injected upstream outage: %w", faults.ErrInjected)

// outageChain gates a ChainSource behind the switch; down reads fail
// with errOutage, exactly like a gateway melting down.
type outageChain struct {
	sw  *outageSwitch
	src core.ChainSource
}

func (o outageChain) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	if o.sw.down.Load() {
		return nil, errOutage
	}
	return o.src.TransactionsOf(a)
}

func (o outageChain) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	if o.sw.down.Load() {
		return nil, errOutage
	}
	return o.src.Transaction(h)
}

func (o outageChain) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	if o.sw.down.Load() {
		return nil, errOutage
	}
	return o.src.Receipt(h)
}

func (o outageChain) IsContract(a ethtypes.Address) (bool, error) {
	if o.sw.down.Load() {
		return false, errOutage
	}
	return o.src.IsContract(a)
}

// outageBlocks gates a BlockSource behind the same switch.
type outageBlocks struct {
	sw  *outageSwitch
	src radar.BlockSource
}

func (o outageBlocks) Head() (uint64, error) {
	if o.sw.down.Load() {
		return 0, errOutage
	}
	return o.src.Head()
}

func (o outageBlocks) BlockRef(n uint64) (radar.BlockRef, error) {
	if o.sw.down.Load() {
		return radar.BlockRef{}, errOutage
	}
	return o.src.BlockRef(n)
}

// chaosEnvelope decodes just enough of a JSON-RPC response for the
// good workers' verdict accounting.
type chaosEnvelope struct {
	JSONRPC string `json:"jsonrpc"`
	Result  []struct {
		Listed      bool   `json:"listed"`
		SnapshotAge uint64 `json:"snapshotAge"`
	} `json:"result"`
	Error *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// RunChaos drives the hardened serving layer through a full bad day:
// honest screening traffic and four flavors of hostile clients hammer
// the server while the radar's upstream chain goes down mid-run and
// heals. It returns what happened; asserting on it is the caller's
// job (TestChaosSoak gates the invariants, BenchmarkChaos feeds
// BENCH_chaos.json).
func RunChaos(w *worldgen.World, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 12
	}
	if cfg.Hostiles <= 0 {
		cfg.Hostiles = 2
	}
	if cfg.ScreenBatchSize <= 0 {
		cfg.ScreenBatchSize = 32
	}
	if cfg.StepEvery <= 0 {
		cfg.StepEvery = 4
	}
	if cfg.OutageBeats <= 0 {
		cfg.OutageBeats = 10
	}
	if cfg.OutagePause <= 0 {
		cfg.OutagePause = 150 * time.Millisecond
	}
	lim := rpc.Limits{MaxInFlight: 2, RequestTimeout: 2 * time.Second, RetryAfter: time.Second}
	if cfg.Limits != nil {
		lim = *cfg.Limits
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	acceptDur := reg.Histogram("daas_loadgen_chaos_accepted_duration_seconds", "latency of accepted screening requests under chaos", obs.DefDurationBuckets)
	base := reg.Snapshot()

	// Radar over an outage-gated source stack following the world.
	sw := &outageSwitch{}
	f := chain.NewFollower(w.Chain)
	dst := f.Chain()
	eng := screen.NewEngine(reg)
	r, err := radar.New(radar.Config{
		Source: outageChain{sw: sw, src: core.LocalSource{Chain: dst}},
		Blocks: outageBlocks{sw: sw, src: radar.ChainBlocks{Chain: dst}},
		Labels: w.Labels,
		Engine: eng,
	})
	if err != nil {
		return nil, err
	}

	// The hardened front door on a real socket: hostile clients need
	// actual TCP connections to abuse.
	server := &rpc.Server{Screen: eng, Radar: r, Metrics: reg, Limits: lim}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.HTTPServer(ln.Addr().String())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()

	// Good traffic: closed-loop daas_screenBatch workers speaking raw
	// HTTP so shed (503 + CodeOverloaded) and degraded (snapshotAge)
	// responses are visible at the wire level.
	phish := w.Labels.AllPhishing()
	universe := append([]ethtypes.Address{}, phish...)
	for i := 0; i < 64+len(phish); i++ {
		var a ethtypes.Address
		a[0] = 0xEE
		a[1] = byte(i >> 8)
		a[2] = byte(i)
		universe = append(universe, a)
	}
	var (
		accepted, shed, timeouts atomic.Uint64
		connErrors, badEnvelopes atomic.Uint64
		maxStale                 atomic.Uint64
		hostileRuns, hostileHeld atomic.Uint64
	)
	noteStale := func(v uint64) {
		for {
			cur := maxStale.Load()
			if v <= cur || maxStale.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rnd := &rng{state: cfg.Seed + uint64(wkr)*0x9E3779B9}
			addrs := make([]string, cfg.ScreenBatchSize)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := range addrs {
					addrs[i] = universe[rnd.intn(len(universe))].Hex()
				}
				body, err := json.Marshal(struct {
					JSONRPC string   `json:"jsonrpc"`
					ID      int64    `json:"id"`
					Method  string   `json:"method"`
					Params  []string `json:"params"`
				}{"2.0", int64(wkr), "daas_screenBatch", addrs})
				if err != nil {
					badEnvelopes.Add(1)
					continue
				}
				start := obs.Now()
				resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					connErrors.Add(1)
					continue
				}
				var env chaosEnvelope
				decodeErr := json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				switch {
				case decodeErr != nil || env.JSONRPC != "2.0":
					badEnvelopes.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					if env.Error != nil && env.Error.Code == rpc.CodeOverloaded {
						shed.Add(1)
					} else {
						badEnvelopes.Add(1)
					}
				case resp.StatusCode != http.StatusOK:
					badEnvelopes.Add(1)
				case env.Error != nil:
					if env.Error.Code == rpc.CodeTimeout {
						timeouts.Add(1)
					} else {
						badEnvelopes.Add(1)
					}
				case len(env.Result) != len(addrs):
					badEnvelopes.Add(1)
				default:
					accepted.Add(1)
					acceptDur.ObserveDuration(obs.Since(start))
					for _, v := range env.Result {
						if v.SnapshotAge > 0 {
							noteStale(v.SnapshotAge)
						}
					}
				}
			}
		}(wkr)
	}

	// Hostile traffic: every flavor of client misbehavior, in parallel
	// with the honest load for the entire run.
	hostile := faults.Hostile{Addr: ln.Addr().String()}
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	var hwg sync.WaitGroup
	spawnHostile := func(run func() error) {
		for i := 0; i < cfg.Hostiles; i++ {
			hwg.Add(1)
			go func() {
				defer hwg.Done()
				for {
					select {
					case <-hctx.Done():
						return
					default:
					}
					hostileRuns.Add(1)
					if err := run(); err != nil && err != faults.ErrHeldOpen {
						// Dial failures etc. under load are expected noise.
						_ = err
					} else if err == faults.ErrHeldOpen {
						hostileHeld.Add(1)
					}
				}
			}()
		}
	}
	corpus := faults.MalformedCorpus()
	var corpusIdx atomic.Uint64
	spawnHostile(func() error {
		slctx, cancel := context.WithTimeout(hctx, 3*time.Second)
		defer cancel()
		return hostile.Slowloris(slctx, 20*time.Millisecond)
	})
	spawnHostile(hostile.MidRequestDisconnect)
	spawnHostile(func() error {
		return hostile.PostMalformed(corpus[corpusIdx.Add(1)%uint64(len(corpus))])
	})
	spawnHostile(func() error {
		kctx, cancel := context.WithTimeout(hctx, 500*time.Millisecond)
		defer cancel()
		return hostile.HungKeepAlive(kctx)
	})

	// Phase 1 — healthy stream: feed the first half of the chain.
	res := &ChaosResult{}
	total := int(w.Chain.BlockCount())
	step := func() {
		if _, err := r.Step(); err != nil {
			res.OutageErrors++
		}
	}
	advance := func(n int) int {
		moved := 0
		for moved < n {
			if _, ok := f.Advance(); !ok {
				break
			}
			moved++
			if moved%cfg.StepEvery == 0 {
				step()
			}
		}
		return moved
	}
	res.Blocks += advance(total / 2)
	step()

	// Phase 2 — outage: the source stack goes dark while new blocks
	// keep arriving. Screening must keep answering from the last good
	// snapshot, with the staleness stamp growing past the 1s floor.
	sw.down.Store(true)
	for beat := 0; beat < cfg.OutageBeats; beat++ {
		if _, ok := f.Advance(); ok {
			res.Blocks++
		}
		step() // fails: counted, never fatal
		time.Sleep(cfg.OutagePause)
	}

	// Before healing, prove degraded mode at the wire: the snapshot has
	// gone un-refreshed for the whole outage (past the 1s staleness
	// floor), so keep probing until one request squeezes through the
	// admission gate and carries the snapshotAge stamp. The racing
	// workers usually observe it first; the probe makes it guaranteed
	// rather than probabilistic.
	probeBody, err := json.Marshal(struct {
		JSONRPC string   `json:"jsonrpc"`
		ID      int64    `json:"id"`
		Method  string   `json:"method"`
		Params  []string `json:"params"`
	}{"2.0", -1, "daas_screenBatch", []string{universe[0].Hex()}})
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 4000 && maxStale.Load() == 0; attempt++ {
		resp, err := httpc.Post(url, "application/json", bytes.NewReader(probeBody))
		if err != nil {
			continue
		}
		var env chaosEnvelope
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if decodeErr == nil && resp.StatusCode == http.StatusOK && env.Error == nil {
			for _, v := range env.Result {
				if v.SnapshotAge > 0 {
					noteStale(v.SnapshotAge)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 3 — heal: the radar catches up and re-freshens the
	// snapshot; remaining blocks stream through normally.
	sw.down.Store(false)
	res.Blocks += advance(total)
	step()
	// Sampled here, not after shutdown: staleness keeps growing with
	// wall time once stepping stops, and the winddown below (drain +
	// export replay) takes seconds under -race.
	res.FinalStale = uint64(eng.Age() / time.Second)

	// Wind down the clients, then drain the server gracefully.
	close(done)
	wg.Wait()
	hcancel()
	hwg.Wait()
	shctx, shcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shcancel()
	res.CleanShutdown = srv.Shutdown(shctx) == nil
	<-serveDone

	// The recovered radar must still export byte-identically to the
	// one-shot batch pipeline over the same finished chain.
	identical, err := exportsMatch(w, r)
	if err != nil {
		return nil, err
	}
	res.ExportIdentical = identical

	st := r.Status()
	res.Cursor = st.Cursor
	res.Accepted = accepted.Load()
	res.Shed = shed.Load()
	res.Timeouts = timeouts.Load()
	res.ConnErrors = connErrors.Load()
	res.BadEnvelopes = badEnvelopes.Load()
	res.MaxStale = maxStale.Load()
	res.HostileRuns = hostileRuns.Load()
	res.HostileHeld = hostileHeld.Load()
	if n := res.Accepted + res.Shed; n > 0 {
		res.ShedRate = float64(res.Shed) / float64(n)
	}
	snap := reg.Snapshot().Diff(base)
	if s := snap.Find("daas_loadgen_chaos_accepted_duration_seconds"); s != nil && s.Hist != nil && s.Hist.Count > 0 {
		res.AcceptedP50 = s.Hist.Quantile(0.50)
		res.AcceptedP99 = s.Hist.Quantile(0.99)
	}
	if s := snap.Find("daas_rpc_server_panics_total"); s != nil {
		res.Panics = s.Counter
	}
	if s := snap.Find("daas_rpc_server_write_errors_total"); s != nil {
		res.WriteErrors = s.Counter
	}
	return res, nil
}

// exportsMatch replays the batch pipeline + clusterer over the world's
// full chain and compares both exports byte-for-byte against the
// radar's incremental state — the replay-identity invariant must
// survive the outage and recovery.
func exportsMatch(w *worldgen.World, r *radar.Radar) (bool, error) {
	p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	ds, err := p.Build()
	if err != nil {
		return false, err
	}
	cl := &cluster.Clusterer{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	fams, err := cl.Cluster(ds)
	if err != nil {
		return false, err
	}
	var want bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		return false, err
	}
	wantFams, err := json.MarshalIndent(fams, "", " ")
	if err != nil {
		return false, err
	}
	var got bytes.Buffer
	if err := r.ExportJSON(&got); err != nil {
		return false, err
	}
	gotFams, err := json.MarshalIndent(r.Families(), "", " ")
	if err != nil {
		return false, err
	}
	return bytes.Equal(got.Bytes(), want.Bytes()) && bytes.Equal(gotFams, wantFams), nil
}
