package faults_test

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/faults"
	"repro/internal/retry"
)

// rollSchedule drives one injector through n source ops and records
// which ops faulted.
func rollSchedule(inj *faults.Source, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		_, err := inj.IsContract(ethtypes.Address{})
		out[i] = err != nil
	}
	return out
}

// nullSource satisfies core.ChainSource with empty answers.
type nullSource struct{}

func (nullSource) TransactionsOf(ethtypes.Address) ([]ethtypes.Hash, error) { return nil, nil }
func (nullSource) Transaction(ethtypes.Hash) (*chain.Transaction, error) {
	return &chain.Transaction{}, nil
}
func (nullSource) Receipt(ethtypes.Hash) (*chain.Receipt, error) { return &chain.Receipt{}, nil }
func (nullSource) IsContract(ethtypes.Address) (bool, error)     { return false, nil }

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	plan := faults.Plan{Seed: 42, Rate: 0.3}
	a := rollSchedule(faults.WrapSource(nullSource{}, faults.NewInjector(plan, nil)), 200)
	b := rollSchedule(faults.WrapSource(nullSource{}, faults.NewInjector(plan, nil)), 200)
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("degenerate schedule: %d/%d ops faulted", faulted, len(a))
	}
	c := rollSchedule(faults.WrapSource(nullSource{}, faults.NewInjector(faults.Plan{Seed: 43, Rate: 0.3}, nil)), 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestMaxFaultsDriesUp(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{Seed: 7, Rate: 1, MaxFaults: 3}, nil)
	src := faults.WrapSource(nullSource{}, inj)
	sched := rollSchedule(src, 10)
	for i, f := range sched {
		if want := i < 3; f != want {
			t.Errorf("op %d faulted=%v, want %v", i, f, want)
		}
	}
	if inj.Faults() != 3 {
		t.Errorf("Faults() = %d, want 3", inj.Faults())
	}
}

func TestInjectedFaultsWrapErrInjected(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{Seed: 1, Rate: 1, MaxFaults: 1}, nil)
	_, err := faults.WrapSource(nullSource{}, inj).Transaction(ethtypes.Hash{})
	if err == nil {
		t.Fatal("rate-1 injector did not fault")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("injected error does not unwrap to ErrInjected: %v", err)
	}
}

func TestFatalAfterOpsPlantsOneFatalFault(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{Seed: 1, FatalAfterOps: 3}, nil)
	src := faults.WrapSource(nullSource{}, inj)
	for i := 1; i <= 5; i++ {
		_, err := src.IsContract(ethtypes.Address{})
		if i == 3 {
			if err == nil {
				t.Fatal("op 3 did not fault")
			}
			if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("planted fault does not unwrap to ErrInjected: %v", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("op %d unexpectedly faulted: %v", i, err)
		}
	}
}

func TestRoundTripperTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	client := &http.Client{Transport: &faults.RoundTripper{
		Inj: faults.NewInjector(faults.Plan{Seed: 1, Rate: 1, MaxFaults: 1, Kinds: []faults.Kind{faults.KindTimeout}}, nil),
	}}
	_, err := client.Get(srv.URL)
	if err == nil {
		t.Fatal("injected timeout did not error")
	}
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Errorf("injected timeout is not a net.Error timeout: %v", err)
	}
	if retry.Classify(err) != retry.ClassTransient {
		t.Errorf("timeout classified %v, want transient", retry.Classify(err))
	}
	// Faults dried up: the next exchange is clean.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("post-fault request failed: %v", err)
	}
	resp.Body.Close()
}

func TestRoundTripperStatusFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	for kind, wantStatus := range map[faults.Kind]int{
		faults.KindStatus5xx: http.StatusServiceUnavailable,
		faults.KindRateLimit: http.StatusTooManyRequests,
	} {
		client := &http.Client{Transport: &faults.RoundTripper{
			Inj: faults.NewInjector(faults.Plan{Seed: 1, Rate: 1, MaxFaults: 1, Kinds: []faults.Kind{kind}}, nil),
		}}
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%v: status = %d, want %d", kind, resp.StatusCode, wantStatus)
		}
		if c := retry.Classify(&retry.HTTPError{Status: resp.StatusCode}); c != retry.ClassTransient {
			t.Errorf("%v: status %d classified %v, want transient", kind, resp.StatusCode, c)
		}
	}
}

func TestRoundTripperConnReset(t *testing.T) {
	client := &http.Client{Transport: &faults.RoundTripper{
		Inj: faults.NewInjector(faults.Plan{Seed: 1, Rate: 1, MaxFaults: 1, Kinds: []faults.Kind{faults.KindReset}}, nil),
	}}
	_, err := client.Get("http://unreachable.invalid/")
	if err == nil {
		t.Fatal("injected reset did not error")
	}
	if retry.Classify(err) != retry.ClassTransient {
		t.Errorf("reset classified %v, want transient", retry.Classify(err))
	}
}

func TestRoundTripperTruncatesBody(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &faults.RoundTripper{
		Inj: faults.NewInjector(faults.Plan{Seed: 1, Rate: 1, MaxFaults: 1, Kinds: []faults.Kind{faults.KindTruncate}}, nil),
	}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body read err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(body) >= len(payload) {
		t.Errorf("body not truncated: got %d of %d bytes", len(body), len(payload))
	}
	if retry.Classify(err) != retry.ClassTransient {
		t.Errorf("truncation classified %v, want transient", retry.Classify(err))
	}
}

// Interface conformance: the fault source must forward every optional
// capability.
var (
	_ core.ChainSource   = (*faults.Source)(nil)
	_ core.BatchSource   = (*faults.Source)(nil)
	_ core.CodeSource    = (*faults.Source)(nil)
	_ core.ContextSource = (*faults.Source)(nil)
)
