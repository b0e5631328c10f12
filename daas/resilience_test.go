package daas_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/rpc"
)

// transportKinds are the wire fault flavors a JSON-RPC gateway shows:
// each fails one HTTP exchange, and rpc.Client retries it.
var transportKinds = []faults.Kind{faults.KindReset, faults.KindTimeout, faults.KindStatus5xx, faults.KindRateLimit, faults.KindTruncate}

// serveWorld serves world over JSON-RPC and returns a client reading it
// the way daas.Dial does, retrying transient failures (here without
// sleeping). A non-nil inj injects its faults into the client's HTTP
// transport.
func serveWorld(t *testing.T, inj *faults.Injector, reg *obs.Registry) *rpc.Client {
	t.Helper()
	srv := httptest.NewServer(rpc.NewServer(world.Chain, world.Labels))
	t.Cleanup(srv.Close)
	rc := rpc.NewClient(srv.URL)
	if inj != nil {
		rc.HTTPClient = &http.Client{Transport: &faults.RoundTripper{Inj: inj}}
	}
	rc.Retry = &retry.Policy{
		MaxAttempts: 6,
		Metrics:     reg,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	return rc
}

func exportWith(t *testing.T, src core.ChainSource, configure func(*daas.Client)) []byte {
	t.Helper()
	c := daas.New(src, world.Labels, world.Oracle)
	if configure != nil {
		configure(c)
	}
	ds, err := c.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultMatrixBuildIsByteIdentical runs the snowball build over
// JSON-RPC under several seeded schedules of transport faults, which
// the client's retry policy absorbs. Every faulted run must converge
// to the fault-free export byte for byte — transient faults cost
// wall-clock, never data.
func TestFaultMatrixBuildIsByteIdentical(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	if len(clean) == 0 {
		t.Fatal("empty clean export")
	}
	for _, seed := range []uint64{1, 2, 3} {
		reg := obs.NewRegistry()
		inj := faults.NewInjector(faults.Plan{Seed: seed, Rate: 0.05, Kinds: transportKinds}, reg)
		got := exportWith(t, serveWorld(t, inj, reg), func(c *daas.Client) {
			c.CacheSize = 1 << 12
			c.Concurrency = 4
			c.Metrics = reg
		})
		if !bytes.Equal(got, clean) {
			t.Errorf("seed %d: faulted export differs from clean build (%d vs %d bytes)", seed, len(got), len(clean))
		}
		if inj.Faults() == 0 {
			t.Errorf("seed %d: schedule injected no faults; the matrix tested nothing", seed)
		}
		t.Logf("seed %d: %d faults in %d transport ops", seed, inj.Faults(), inj.Ops())
	}
}

// TestFaultedCheckpointResumeThroughClient exercises the full wiring a
// CLI run uses: a checkpointing build over JSON-RPC, whose transport
// faults the client retries, dies on a planted kill late in the run; a
// second Client with -resume semantics finishes the build to the
// byte-identical export.
func TestFaultedCheckpointResumeThroughClient(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	path := filepath.Join(t.TempDir(), "daas.ckpt")

	// Count the client's reads to plant the kill late in the run.
	counter := faults.NewInjector(faults.Plan{}, nil)
	exportWith(t, faults.WrapSource(serveWorld(t, nil, nil), counter), nil)
	kill := counter.Ops() - 1

	wire := faults.NewInjector(faults.Plan{Seed: 9, Rate: 0.02, Kinds: transportKinds}, nil)
	killer := faults.NewInjector(faults.Plan{FatalAfterOps: kill}, nil)
	c := daas.New(faults.WrapSource(serveWorld(t, wire, nil), killer), world.Labels, world.Oracle)
	c.CheckpointPath = path
	if _, err := c.BuildDataset(); err == nil {
		t.Fatal("build survived its planted kill")
	}
	if killer.Faults() != 1 || wire.Faults() == 0 {
		t.Fatalf("kill faults = %d, transport faults = %d; want 1 and > 0", killer.Faults(), wire.Faults())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("killed build left no checkpoint to resume: %v", err)
	}

	got := exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) {
		c.CheckpointPath = path
		c.Resume = true
	})
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed export differs from clean build (%d vs %d bytes)", len(got), len(clean))
	}
}

// corruptionKinds are the data-mangling fault flavors: the read
// succeeds, but the record is wrong.
var corruptionKinds = []faults.Kind{faults.KindCorruptField, faults.KindTruncateLogs, faults.KindStaleReorg}

// TestCorruptionMatrixBuildIsByteIdentical runs the snowball build
// under seeded response corruption. Corrupted responses are errors the
// transport cannot see — only the integrity layer can. Every corrupted
// run must (a) complete without aborting, (b) quarantine the garbage
// with reason codes, and (c) still export byte-identically to the
// clean build: corruption costs re-fetches, never data.
func TestCorruptionMatrixBuildIsByteIdentical(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	if len(clean) == 0 {
		t.Fatal("empty clean export")
	}
	for _, seed := range []uint64{1, 2, 3} {
		reg := obs.NewRegistry()
		inj := faults.NewInjector(faults.Plan{Seed: seed, Rate: 0.05, Kinds: corruptionKinds}, reg)
		src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
		var client *daas.Client
		got := exportWith(t, src, func(c *daas.Client) {
			c.CacheSize = 1 << 12
			c.Concurrency = 4
			c.Metrics = reg
			client = c
		})
		if !bytes.Equal(got, clean) {
			t.Errorf("seed %d: corrupted export differs from clean build (%d vs %d bytes)", seed, len(got), len(clean))
		}
		if inj.Faults() == 0 {
			t.Errorf("seed %d: schedule corrupted nothing; the matrix tested nothing", seed)
		}
		q := client.Quarantine()
		if q.Total() == 0 {
			t.Errorf("seed %d: %d corruptions injected but none quarantined", seed, inj.Faults())
		}
		for key, n := range q.Counts() {
			if n <= 0 {
				t.Errorf("seed %d: non-positive quarantine count for %q", seed, key)
			}
		}
		if client.Manifest(nil).Clean() {
			t.Errorf("seed %d: corrupted run reports a clean manifest", seed)
		}
	}

	// The clean run, by contrast, must report a clean manifest — the
	// -strict contract.
	var cleanClient *daas.Client
	exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) { cleanClient = c })
	if m := cleanClient.Manifest(nil); !m.Clean() {
		t.Errorf("clean run reports a dirty manifest: %+v", m)
	}
}

// TestQuarantinedCheckpointResumeRoundTrip kills a corrupted,
// checkpointing build mid-run and resumes it with a clean source. The
// resumed run must reproduce the clean export AND still carry the
// quarantine records and coverage the interrupted run accumulated —
// resume never launders away evidence of past corruption.
func TestQuarantinedCheckpointResumeRoundTrip(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	path := filepath.Join(t.TempDir(), "daas.ckpt")

	// Count ops under the same corruption plan to plant the kill late.
	counter := faults.NewInjector(faults.Plan{Seed: 11, Rate: 0.05, Kinds: corruptionKinds}, nil)
	exportWith(t, faults.WrapSource(core.LocalSource{Chain: world.Chain}, counter), nil)
	kill := counter.Ops() - 1

	inj := faults.NewInjector(faults.Plan{Seed: 11, Rate: 0.05, Kinds: corruptionKinds, FatalAfterOps: kill}, nil)
	src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
	c := daas.New(src, world.Labels, world.Oracle)
	c.CheckpointPath = path
	if _, err := c.BuildDataset(); err == nil {
		t.Fatal("build survived its planted fatal fault")
	}
	if c.Quarantine().Total() == 0 {
		t.Fatal("interrupted run quarantined nothing; the round trip tests nothing")
	}

	var resumed *daas.Client
	got := exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) {
		c.CheckpointPath = path
		c.Resume = true
		resumed = c
	})
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed export differs from clean build (%d vs %d bytes)", len(got), len(clean))
	}
	if resumed.Quarantine().Total() == 0 {
		t.Error("resume discarded the checkpointed quarantine")
	}
	if resumed.Manifest(nil).Clean() {
		t.Error("resumed run reports a clean manifest despite restored quarantine")
	}
}
