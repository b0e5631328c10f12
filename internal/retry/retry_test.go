package retry_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// unavailable is a transient failure by shape: the gateway's 503.
var unavailable = &retry.HTTPError{Status: 503}

// recordedSleeps swaps the policy's sleeper for an instant recorder.
func recordedSleeps(p *retry.Policy) *[]time.Duration {
	var sleeps []time.Duration
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	return &sleeps
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	p := &retry.Policy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond}
	sleeps := recordedSleeps(p)
	calls := 0
	err := p.Do(context.Background(), "op", func() error {
		calls++
		if calls < 3 {
			return unavailable
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(*sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", *sleeps, want)
	}
	for i, d := range want {
		if (*sleeps)[i] != d {
			t.Errorf("sleep %d = %v, want %v (deterministic backoff)", i, (*sleeps)[i], d)
		}
	}
}

func TestDoStopsOnFatal(t *testing.T) {
	p := &retry.Policy{}
	recordedSleeps(p)
	calls := 0
	fatal := errors.New("definitive rejection")
	err := p.Do(context.Background(), "op", func() error {
		calls++
		return fatal
	})
	if !errors.Is(err, fatal) {
		t.Fatalf("Do = %v, want the fatal error", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry on fatal)", calls)
	}
}

func TestDoBoundedAttempts(t *testing.T) {
	reg := obs.NewRegistry()
	p := &retry.Policy{MaxAttempts: 3, Metrics: reg}
	recordedSleeps(p)
	calls := 0
	err := p.Do(context.Background(), "op", func() error {
		calls++
		return unavailable
	})
	if !errors.Is(err, unavailable) {
		t.Fatalf("Do = %v, want last error", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want MaxAttempts=3", calls)
	}
	if got := reg.CounterVec("daas_retry_attempts_total", "", "op").With("op").Value(); got != 3 {
		t.Errorf("attempts counter = %d, want 3", got)
	}
	if got := reg.CounterVec("daas_retry_giveups_total", "", "op").With("op").Value(); got != 1 {
		t.Errorf("giveups counter = %d, want 1", got)
	}
}

func TestDelayCapsAtMaxDelay(t *testing.T) {
	p := &retry.Policy{BaseDelay: time.Second}
	for n, want := range map[int]time.Duration{
		1:  time.Second,
		2:  2 * time.Second,
		3:  4 * time.Second,
		4:  5 * time.Second, // 8s, capped
		20: 5 * time.Second,
	} {
		if d := p.Delay(n); d != want {
			t.Errorf("Delay(%d) = %v, want %v", n, d, want)
		}
	}
}

func TestNilPolicyRunsOnce(t *testing.T) {
	var p *retry.Policy
	calls := 0
	err := p.Do(context.Background(), "op", func() error {
		calls++
		return unavailable
	})
	if err == nil || calls != 1 {
		t.Errorf("nil policy: calls = %d, err = %v; want 1 call, error through", calls, err)
	}
}

func TestDoRespectsContextCancellation(t *testing.T) {
	p := &retry.Policy{MaxAttempts: 100}
	recordedSleeps(p)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := p.Do(ctx, "op", func() error {
		calls++
		if calls == 2 {
			cancel()
		}
		return unavailable
	})
	if !errors.Is(err, unavailable) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (cancel stops the retry loop)", calls)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want retry.Class
	}{
		{"http 503", &retry.HTTPError{Status: 503}, retry.ClassTransient},
		{"http 429", &retry.HTTPError{Status: 429}, retry.ClassTransient},
		{"http 404", &retry.HTTPError{Status: 404}, retry.ClassFatal},
		{"wrapped http 500", fmt.Errorf("rpc: call: %w", &retry.HTTPError{Status: 500}), retry.ClassTransient},
		{"conn reset", fmt.Errorf("read: %w", syscall.ECONNRESET), retry.ClassTransient},
		{"conn refused", syscall.ECONNREFUSED, retry.ClassTransient},
		{"truncated body", io.ErrUnexpectedEOF, retry.ClassTransient},
		{"net timeout", &net.DNSError{IsTimeout: true}, retry.ClassTransient},
		{"context canceled", context.Canceled, retry.ClassFatal},
		{"plain error", errors.New("no such method"), retry.ClassFatal},
	}
	for _, tc := range cases {
		if got := retry.Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLateMetricsAssignmentIsNotLatched(t *testing.T) {
	p := &retry.Policy{MaxAttempts: 2}
	recordedSleeps(p)
	// First use without metrics must not latch no-op instruments.
	_ = p.Do(context.Background(), "op", func() error { return nil })
	reg := obs.NewRegistry()
	p.Metrics = reg
	_ = p.Do(context.Background(), "op", func() error { return nil })
	if got := reg.CounterVec("daas_retry_attempts_total", "", "op").With("op").Value(); got != 1 {
		t.Errorf("attempts after late assignment = %d, want 1", got)
	}
}
