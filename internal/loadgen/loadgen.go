// Package loadgen is the deterministic load-generator/stresser harness
// for the measurement pipeline (ROADMAP item 2): it drives a
// ChainSource stack — the in-process simulator, a daas.NewStack source
// stack, or a remote JSON-RPC endpoint — with a seeded operation
// schedule at a configured rate or concurrency, and it drives complete
// §5.1 dataset builds (see RunPipeline), recording per-op latency
// histograms, error counts, and achieved-versus-offered throughput
// through internal/obs.
//
// Determinism contract: the operation schedule (which op hits which
// target, in which dispatch order) is a pure function of Config.Seed —
// no process PRNG, no wall-clock reads outside obs.Now/obs.Since
// instrumentation (reprolint rule 6 enforces this). Latencies vary
// with the hardware; everything the schedule controls does not, and a
// loadgen-driven pipeline build exports byte-identical datasets.
package loadgen

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// Op names one chain-source operation the generator can issue.
type Op string

// The generatable operations, mirroring the pipeline's fetch mix.
const (
	OpTransaction    Op = "Transaction"
	OpReceipt        Op = "Receipt"
	OpTransactionsOf Op = "TransactionsOf"
	OpIsContract     Op = "IsContract"
)

// allOps fixes the op iteration order; map iteration over Config.Mix
// must never leak into the schedule.
var allOps = []Op{OpTransaction, OpReceipt, OpTransactionsOf, OpIsContract}

// DefaultMix weights ops the way a frontier scan does: record fetches
// dominate, account-level calls are the minority.
var DefaultMix = map[Op]int{
	OpTransaction:    4,
	OpReceipt:        4,
	OpTransactionsOf: 1,
	OpIsContract:     1,
}

// Config tunes one load-generation run.
type Config struct {
	// Seed fully determines the operation schedule.
	Seed uint64
	// Ops is the total number of operations to issue.
	Ops int
	// Concurrency is the worker count: the fixed in-flight ceiling in
	// closed-loop mode, the consumer pool in open-loop mode. Default 1.
	Concurrency int
	// Rate, when positive, switches to open-loop mode: operations are
	// dispatched on a fixed schedule of Rate ops/second regardless of
	// completion — the arrival process real traffic has — and the
	// dispatch lag histogram records how far the generator fell behind
	// the offered schedule. Zero means closed loop: each worker issues
	// its next op as soon as the previous one returns.
	Rate float64
	// Mix weights the op types (DefaultMix when nil). Ops with zero or
	// negative weight are never issued.
	Mix map[Op]int
	// Registry receives the loadgen instruments
	// (daas_loadgen_ops_total, daas_loadgen_op_errors_total,
	// daas_loadgen_op_duration_seconds{op}, and in open-loop mode
	// daas_loadgen_dispatch_lag_seconds). When nil a private registry
	// is used; either way Run reports through the Result.
	Registry *obs.Registry
}

// Generator drives a chain source with a deterministic op schedule.
type Generator struct {
	// Source is the stack under test.
	Source core.ChainSource
	// Hashes and Accounts are the target universes for record and
	// account operations respectively. Order matters: target picks are
	// indexes into these slices.
	Hashes   []ethtypes.Hash
	Accounts []ethtypes.Address
	Config   Config
}

// FromWorld builds a generator over a generated world's local chain:
// the account universe is the chain's sorted history index and the
// hash universe is every transaction in first-seen order, so the same
// seed always addresses the same targets.
func FromWorld(w *worldgen.World, cfg Config) *Generator {
	accounts := w.Chain.AccountsWithHistory()
	seen := make(map[ethtypes.Hash]bool)
	var hashes []ethtypes.Hash
	for _, a := range accounts {
		for _, h := range w.Chain.TransactionsOf(a) {
			if !seen[h] {
				seen[h] = true
				hashes = append(hashes, h)
			}
		}
	}
	return &Generator{
		Source:   core.LocalSource{Chain: w.Chain},
		Hashes:   hashes,
		Accounts: accounts,
		Config:   cfg,
	}
}

// task is one scheduled operation: the op and the index into its
// target universe.
type task struct {
	op     Op
	target int
}

// rng is splitmix64 — tiny, seedable, and outside math/rand, which
// reprolint bans here so process-PRNG state can never reach the
// schedule.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Schedule materializes the run's operation sequence from the seed: a
// pure function of (Seed, Ops, Mix, universe sizes). Exposed so tests
// and reports can assert determinism without executing anything.
func (g *Generator) Schedule() ([]task, error) {
	mix := g.Config.Mix
	if mix == nil {
		mix = DefaultMix
	}
	var total int
	for _, op := range allOps {
		if w := mix[op]; w > 0 {
			total += w
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: op mix has no positive weights")
	}
	for _, op := range allOps {
		if mix[op] > 0 && len(g.universe(op)) == 0 {
			return nil, fmt.Errorf("loadgen: op %s enabled but its target universe is empty", op)
		}
	}
	r := &rng{state: g.Config.Seed}
	tasks := make([]task, g.Config.Ops)
	for i := range tasks {
		draw := r.intn(total)
		var op Op
		for _, candidate := range allOps {
			w := mix[candidate]
			if w <= 0 {
				continue
			}
			if draw < w {
				op = candidate
				break
			}
			draw -= w
		}
		tasks[i] = task{op: op, target: r.intn(len(g.universe(op)))}
	}
	return tasks, nil
}

// universe returns the target slice length-indexed by an op.
func (g *Generator) universe(op Op) []ethtypes.Hash {
	switch op {
	case OpTransaction, OpReceipt:
		return g.Hashes
	default:
		// Account ops: reuse the hash slice type for sizing only.
		return make([]ethtypes.Hash, len(g.Accounts))
	}
}

// execute issues one operation against the source.
func (g *Generator) execute(t task) error {
	var err error
	switch t.op {
	case OpTransaction:
		_, err = g.Source.Transaction(g.Hashes[t.target])
	case OpReceipt:
		_, err = g.Source.Receipt(g.Hashes[t.target])
	case OpTransactionsOf:
		_, err = g.Source.TransactionsOf(g.Accounts[t.target])
	case OpIsContract:
		_, err = g.Source.IsContract(g.Accounts[t.target])
	default:
		err = fmt.Errorf("loadgen: unknown op %q", t.op)
	}
	return err
}

// OpStats summarizes one op's latency distribution over a run.
type OpStats struct {
	Op          string  `json:"op"`
	Count       uint64  `json:"count"`
	Errors      uint64  `json:"errors,omitempty"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	SumSeconds  float64 `json:"sum_seconds"`
}

// Result is one run's outcome: counts, throughput, and per-op latency
// quantiles, all derived from a registry snapshot diff so a shared
// registry never double-counts across runs.
type Result struct {
	Mode           string    `json:"mode"` // "open" or "closed"
	Seed           uint64    `json:"seed"`
	Ops            int       `json:"ops"`
	Errors         int       `json:"errors"`
	Concurrency    int       `json:"concurrency"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	OfferedRate    float64   `json:"offered_rate,omitempty"`
	AchievedRate   float64   `json:"achieved_rate"`
	PerOp          []OpStats `json:"per_op"`
	// DispatchLagP99Seconds reports, in open-loop mode, the p99 of how
	// late operations left the dispatcher relative to their scheduled
	// instant — the overload signal an achieved-rate number alone
	// hides.
	DispatchLagP99Seconds float64 `json:"dispatch_lag_p99_seconds,omitempty"`
}

// Run executes the configured schedule and reports the outcome.
func (g *Generator) Run() (*Result, error) {
	if g.Source == nil {
		return nil, fmt.Errorf("loadgen: no source")
	}
	if g.Config.Ops <= 0 {
		return nil, fmt.Errorf("loadgen: Ops must be positive")
	}
	tasks, err := g.Schedule()
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
	opsTotal := reg.CounterVec("daas_loadgen_ops_total", "load-generator operations issued by op", "op")
	opErrors := reg.CounterVec("daas_loadgen_op_errors_total", "failed load-generator operations by op", "op")
	latency := reg.HistogramVec("daas_loadgen_op_duration_seconds", "load-generator operation latency by op", obs.DefDurationBuckets, "op")
	lag := reg.Histogram("daas_loadgen_dispatch_lag_seconds", "open-loop dispatch lateness versus the offered schedule", obs.DefDurationBuckets)
	base := reg.Snapshot()

	var errCount atomic.Int64
	runOne := func(t task) {
		start := obs.Now()
		err := g.execute(t)
		latency.With(string(t.op)).ObserveDuration(obs.Since(start))
		opsTotal.With(string(t.op)).Inc()
		if err != nil {
			opErrors.With(string(t.op)).Inc()
			errCount.Add(1)
		}
	}

	start := obs.Now()
	mode := "closed"
	if g.Config.Rate > 0 {
		mode = "open"
		// Open loop: the dispatcher releases tasks on the offered
		// schedule; a buffered channel holds the backlog so a slow
		// source delays completions, never arrivals.
		queue := make(chan task, len(tasks))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range queue {
					runOne(t)
				}
			}()
		}
		interval := float64(time.Second) / g.Config.Rate
		for i, t := range tasks {
			due := start.Add(time.Duration(float64(i) * interval))
			now := obs.Now()
			if wait := due.Sub(now); wait > 0 {
				time.Sleep(wait)
			} else {
				lag.ObserveDuration(-due.Sub(now))
			}
			queue <- t
		}
		close(queue)
		wg.Wait()
	} else {
		// Closed loop: each worker strides the schedule, issuing its
		// next op as soon as the previous returns — fixed concurrency,
		// offered rate implied by service time.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(tasks); i += workers {
					runOne(tasks[i])
				}
			}(w)
		}
		wg.Wait()
	}
	elapsed := obs.Since(start)

	snap := reg.Snapshot().Diff(base)
	res := &Result{
		Mode:           mode,
		Seed:           g.Config.Seed,
		Ops:            len(tasks),
		Errors:         int(errCount.Load()),
		Concurrency:    workers,
		ElapsedSeconds: elapsed.Seconds(),
		OfferedRate:    g.Config.Rate,
	}
	if res.ElapsedSeconds > 0 {
		res.AchievedRate = float64(res.Ops) / res.ElapsedSeconds
	}
	for _, op := range allOps {
		smp := snap.Find("daas_loadgen_op_duration_seconds", string(op))
		if smp == nil || smp.Hist == nil || smp.Hist.Count == 0 {
			continue
		}
		st := OpStats{
			Op:          string(op),
			Count:       smp.Hist.Count,
			MeanSeconds: smp.Hist.Mean(),
			P50Seconds:  smp.Hist.Quantile(0.50),
			P95Seconds:  smp.Hist.Quantile(0.95),
			P99Seconds:  smp.Hist.Quantile(0.99),
			SumSeconds:  smp.Hist.Sum,
		}
		if e := snap.Find("daas_loadgen_op_errors_total", string(op)); e != nil {
			st.Errors = e.Counter
		}
		res.PerOp = append(res.PerOp, st)
	}
	sort.Slice(res.PerOp, func(i, j int) bool { return res.PerOp[i].Op < res.PerOp[j].Op })
	if mode == "open" {
		if smp := snap.Find("daas_loadgen_dispatch_lag_seconds"); smp != nil && smp.Hist != nil && smp.Hist.Count > 0 {
			res.DispatchLagP99Seconds = smp.Hist.Quantile(0.99)
		}
	}
	return res, nil
}
