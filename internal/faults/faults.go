// Package faults injects deterministic, seeded faults into the
// measurement pipeline's I/O paths, standing in for the failure modes
// the paper's live infrastructure faces: RPC gateways that rate-limit
// and shed load, CT log frontends that 5xx under bursts, phishing
// sites that reset connections or truncate responses mid-crawl.
//
// Two decorators share one seeded Injector:
//
//   - Source wraps a core.ChainSource, erroring a configurable
//     fraction of chain reads (and, optionally, planting one fatal
//     fault at a fixed operation count — the kill-mid-run probe for
//     checkpoint/resume tests). The corruption kinds (KindCorruptField,
//     KindTruncateLogs, KindStaleReorg) instead let the read through
//     and mangle the response data in flight, exercising the integrity
//     layer's quarantine-and-refetch path;
//   - RoundTripper wraps an http.RoundTripper, synthesizing timeouts,
//     5xx responses, connection resets, 429 rate limits, and truncated
//     bodies for the CT client and the crawler.
//
// Given the same seed and the same sequential operation order, an
// injector produces the same fault schedule, so resilience tests can
// assert exact retry counts and byte-identical recovered outputs.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// Kind is one injectable fault flavor.
type Kind int

// Fault kinds. The HTTP-specific kinds degrade to KindReset when
// injected into a non-HTTP path (a ChainSource read has no status
// line to fake).
const (
	// KindReset simulates a connection reset by peer.
	KindReset Kind = iota
	// KindTimeout simulates a request that times out.
	KindTimeout
	// KindStatus5xx simulates an HTTP 503 from the far side.
	KindStatus5xx
	// KindRateLimit simulates an HTTP 429.
	KindRateLimit
	// KindTruncate lets the request through but cuts the response body
	// short (HTTP paths only).
	KindTruncate
	// KindCorruptField lets a chain read through but mutates a record
	// field in flight (a transaction's sender, a receipt's identity),
	// producing data instead of an error. Detectable by construction:
	// the recomputed hash or receipt identity can no longer match.
	KindCorruptField
	// KindTruncateLogs lets a chain read through but truncates the
	// receipt's trailing structure (last log loses its emitting address
	// and topics; with no logs, the last transfer loses both endpoints;
	// with neither, the identity is garbled) — the shape of a response
	// cut short mid-body.
	KindTruncateLogs
	// KindStaleReorg lets a chain read through but answers from a
	// phantom fork: the receipt's block number and timestamp are shifted
	// far outside plausibility bounds.
	KindStaleReorg
)

func (k Kind) String() string {
	switch k {
	case KindReset:
		return "reset"
	case KindTimeout:
		return "timeout"
	case KindStatus5xx:
		return "status5xx"
	case KindRateLimit:
		return "ratelimit"
	case KindTruncate:
		return "truncate"
	case KindCorruptField:
		return "corrupt-field"
	case KindTruncateLogs:
		return "truncate-logs"
	case KindStaleReorg:
		return "stale-reorg"
	default:
		return "unknown"
	}
}

// corrupting reports whether k mutates response data in flight instead
// of erroring. Corruption kinds only apply to record-fetching chain
// reads (Transaction/Receipt and their batches); rolled on any other
// operation they pass the clean response through — the roll is still
// consumed, preserving the one-draw-per-op schedule contract.
func (k Kind) corrupting() bool {
	switch k {
	case KindCorruptField, KindTruncateLogs, KindStaleReorg:
		return true
	default:
		return false
	}
}

// ErrInjected is the root of every injected fault, so tests can assert
// a failure was synthetic.
var ErrInjected = errors.New("faults: injected fault")

// Plan configures an Injector.
type Plan struct {
	// Seed feeds the deterministic schedule RNG.
	Seed uint64
	// Rate is the per-operation fault probability in [0, 1].
	Rate float64
	// Kinds is the fault-flavor pool one is drawn from per fault
	// (default: KindReset only).
	Kinds []Kind
	// MaxFaults, when positive, stops injecting after that many faults
	// — the schedule "dries up", letting a retried or resumed run
	// complete and be compared against a fault-free one.
	MaxFaults int64
	// FatalAfterOps, when positive, injects exactly one fault at
	// operation number FatalAfterOps, independent of Rate — the
	// deterministic kill switch for checkpoint/resume tests. On a Source
	// it fails the read that rolled it (nothing retries a Source error);
	// a RoundTripper surfaces it as a connection reset.
	FatalAfterOps int64
}

// Injector is a seeded deterministic fault scheduler shared by the
// decorators. Safe for concurrent use; with concurrent callers the
// schedule stays deterministic per operation-arrival order, so strict
// schedule assertions should drive it sequentially.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	plan   Plan
	ops    int64
	faults int64

	injected *obs.CounterVec
}

// NewInjector builds an injector from the plan, optionally registering
// a daas_faults_injected_total{kind} counter in reg (nil reg means
// no-op).
func NewInjector(plan Plan, reg *obs.Registry) *Injector {
	if len(plan.Kinds) == 0 {
		plan.Kinds = []Kind{KindReset}
	}
	return &Injector{
		rng:      rand.New(rand.NewSource(int64(plan.Seed))),
		plan:     plan,
		injected: reg.CounterVec("daas_faults_injected_total", "synthetic faults injected by kind", "kind"),
	}
}

// roll advances the operation counter and decides whether this
// operation faults; fatal reports the planted FatalAfterOps fault.
func (i *Injector) roll() (kind Kind, fatal, ok bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	if i.plan.FatalAfterOps > 0 && i.ops == i.plan.FatalAfterOps {
		i.faults++
		i.injected.With("fatal").Inc()
		return 0, true, true
	}
	if i.plan.Rate <= 0 {
		return 0, false, false
	}
	if i.plan.MaxFaults > 0 && i.faults >= i.plan.MaxFaults {
		return 0, false, false
	}
	// Always consume exactly one float per operation, so the schedule
	// depends only on the op index, not on earlier outcomes.
	v := i.rng.Float64()
	if v >= i.plan.Rate {
		return 0, false, false
	}
	kind = i.plan.Kinds[int(i.rng.Int31n(int32(len(i.plan.Kinds))))]
	i.faults++
	i.injected.With(kind.String()).Inc()
	return kind, false, true
}

// Ops reports how many operations the injector has seen.
func (i *Injector) Ops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Faults reports how many faults have been injected.
func (i *Injector) Faults() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.faults
}

// sourceError turns a rolled fault into an error for a non-HTTP path,
// naming the kind (or "fatal" for the planted fault) and rooted in
// ErrInjected. Retries live in the network clients, below any Source,
// so the error fails the read that rolled it.
func sourceError(kind Kind, fatal bool, op string) error {
	if fatal {
		return fmt.Errorf("faults: %s: fatal: %w", op, ErrInjected)
	}
	return fmt.Errorf("faults: %s: %s: %w", op, kind, ErrInjected)
}
