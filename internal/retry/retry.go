// Package retry is the retry policy of the chain client: a
// deterministic exponential backoff with per-error classification.
//
// Public RPC gateways rate-limit and shed load, so a single transient
// fault must never abort a multi-hour snowball build. The JSON-RPC
// client (internal/rpc) accepts a *Policy and routes each request
// through Do; it is the only place a retry happens. Layers above it
// (the integrity layer, the fetch cache) see a request that eventually
// succeeded or a failure that retrying did not cure. The CT client
// (internal/ct) and the crawler (internal/crawler) send each request
// once and report a non-200 status as a plain error naming it.
//
// Backoff is deterministic (no jitter): given the same fault schedule
// the retry sequence is identical run to run, which keeps the
// fault-injection tests (internal/faults) reproducible and lets the
// pipeline's byte-identical-output guarantee extend to faulted runs.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Class is the retry classification of an error.
type Class int

// Error classes.
const (
	// ClassFatal errors are returned immediately: the request is
	// malformed, the response is a definitive application-level answer
	// (JSON-RPC error object, HTTP 4xx other than 429), or the caller
	// cancelled.
	ClassFatal Class = iota
	// ClassTransient errors are worth retrying: timeouts, connection
	// resets, HTTP 5xx and 429, truncated response bodies.
	ClassTransient
)

func (c Class) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "fatal"
}

// HTTPError carries an HTTP status code through error wrapping, so the
// classifier can distinguish a retryable 503 from a definitive 404
// regardless of which client produced it.
type HTTPError struct {
	Status int
}

func (e *HTTPError) Error() string { return fmt.Sprintf("http %d", e.Status) }

// Classify decides whether an error is worth retrying: HTTP status
// first (5xx and 429 are transient), then transport-level signals
// (timeouts, connection resets/refusals, truncated bodies). Everything
// unrecognized is fatal — retrying an error we cannot attribute to
// infrastructure risks hammering a server with a request it already
// rejected for cause.
func Classify(err error) Class {
	if err == nil {
		return ClassFatal
	}
	var httpErr *HTTPError
	if errors.As(err, &httpErr) {
		if httpErr.Status == 429 || httpErr.Status >= 500 {
			return ClassTransient
		}
		return ClassFatal
	}
	// A caller-initiated cancel is final. Deadline expiry falls through
	// to the net.Error timeout check: an HTTP client timeout surfaces
	// as a *url.Error that is both a deadline and a timeout, and a
	// timed-out attempt is exactly what backoff exists for.
	if errors.Is(err, context.Canceled) {
		return ClassFatal
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return ClassTransient
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ClassTransient
	}
	return ClassFatal
}

// Policy is a deterministic exponential-backoff retry policy. The zero
// value (and a nil *Policy) performs no retries; Default returns the
// production configuration. Policies are safe for concurrent use.
type Policy struct {
	// MaxAttempts bounds the total tries per operation, first try
	// included (default 4: one try plus three retries).
	MaxAttempts int
	// BaseDelay is the sleep before the first retry (default 50ms);
	// each further retry doubles it, up to 5s.
	BaseDelay time.Duration
	// Metrics, when set, records daas_retry_attempts_total{op},
	// daas_retry_retries_total{op}, and daas_retry_giveups_total{op}.
	Metrics *obs.Registry
	// Sleep is the backoff sleeper, injectable for tests. The default
	// honors ctx cancellation. It never runs with a zero or negative
	// duration.
	Sleep func(ctx context.Context, d time.Duration) error

	metricsOnce sync.Once
	pm          policyMetrics
}

// policyMetrics caches the policy's instruments; all nil (no-op) when
// Metrics is unset.
type policyMetrics struct {
	attempts *obs.CounterVec
	retries  *obs.CounterVec
	giveups  *obs.CounterVec
}

var noopPolicyMetrics policyMetrics

func (p *Policy) metrics() *policyMetrics {
	// The nil guard precedes the once: a policy used before Metrics is
	// assigned must not latch no-op instruments forever (the latch bug
	// fixed in rpc.Client and ct.Client).
	if p.Metrics == nil {
		return &noopPolicyMetrics
	}
	p.metricsOnce.Do(func() {
		p.pm = policyMetrics{
			attempts: p.Metrics.CounterVec("daas_retry_attempts_total", "tries per retryable operation (first try included)", "op"),
			retries:  p.Metrics.CounterVec("daas_retry_retries_total", "retries performed after transient failures", "op"),
			giveups:  p.Metrics.CounterVec("daas_retry_giveups_total", "operations abandoned with attempts exhausted", "op"),
		}
	})
	return &p.pm
}

// maxDelay caps the backoff between two tries.
const maxDelay = 5 * time.Second

// Default returns the production retry policy: 4 attempts, 50ms base
// delay doubling to a 5s cap.
func Default() *Policy {
	return &Policy{}
}

func (p *Policy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 4
}

func (p *Policy) baseDelay() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 50 * time.Millisecond
}

// Delay returns the deterministic backoff before retry number retry
// (1-based): BaseDelay·2^(retry-1), capped at 5s.
func (p *Policy) Delay(retry int) time.Duration {
	d := p.baseDelay()
	for i := 1; i < retry && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

func (p *Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn under the policy: transient failures are retried with
// exponential backoff until success, a fatal error, attempt
// exhaustion, or ctx cancellation. The returned error is fn's last
// error, never a new synthetic one, so callers' error wrapping and
// inspection work unchanged. A nil policy runs fn exactly once.
func (p *Policy) Do(ctx context.Context, op string, fn func() error) error {
	if p == nil {
		return fn()
	}
	pm := p.metrics()
	max := p.maxAttempts()
	for attempt := 1; ; attempt++ {
		pm.attempts.With(op).Inc()
		err := fn()
		if err == nil || Classify(err) != ClassTransient {
			return err
		}
		if attempt >= max || ctx.Err() != nil {
			pm.giveups.With(op).Inc()
			return err
		}
		pm.retries.With(op).Inc()
		if serr := p.sleep(ctx, p.Delay(attempt)); serr != nil {
			return err
		}
	}
}
