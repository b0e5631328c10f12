package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/retry"
	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// radarOptions carries the flags the radar subcommand consumes.
type radarOptions struct {
	RPCURL      string
	Seed        uint64
	Scale       float64
	Listen      string
	DomainsPath string
	Checkpoint  string
	Resume      bool
	Poll        time.Duration
	ReorgWindow int
	Verbose     bool
	Limits      rpc.Limits
}

// runRadar stands up the live detection daemon (§8.1 monitoring
// path): follow the chain head — a remote node over JSON-RPC or a
// locally generated world — through the integrity-pinned source stack,
// classify arriving transactions, keep the dataset and §7.1 families
// current, and hot-swap the screening snapshot per update batch. The
// same endpoint serves daas_screen* off the live engine and
// daas_radarStatus/daas_radarUpdates off the daemon, until
// SIGINT/SIGTERM.
func runRadar(reg *obs.Registry, opts radarOptions) error {
	var (
		base   core.ChainSource
		blocks radar.BlockSource
		lbls   *labels.Directory
	)
	if opts.RPCURL != "" {
		rc := rpc.NewClient(opts.RPCURL)
		rc.Metrics = reg
		rc.Retry = &retry.Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Metrics: reg}
		dir, err := rc.FetchLabels()
		if err != nil {
			return fmt.Errorf("fetching labels from %s: %w", opts.RPCURL, err)
		}
		lbls = dir
		base = rc
		blocks = rpc.ClientBlocks{Client: rc}
		log.Printf("radar: following %s (%d phishing reports ingested)", opts.RPCURL, len(lbls.AllPhishing()))
	} else {
		cfg := worldgen.DefaultConfig(opts.Seed)
		cfg.Scale = opts.Scale
		world, err := worldgen.Generate(cfg)
		if err != nil {
			return fmt.Errorf("generating world: %w", err)
		}
		lbls = world.Labels
		base = core.LocalSource{Chain: world.Chain}
		blocks = radar.ChainBlocks{Chain: world.Chain}
		log.Printf("radar: following local world seed=%d scale=%.3f (%d blocks)",
			opts.Seed, opts.Scale, world.Chain.BlockCount())
	}

	var confirmed []string
	if opts.DomainsPath != "" {
		var err error
		if confirmed, err = readDomainList(opts.DomainsPath); err != nil {
			return err
		}
	}

	level := obs.LevelInfo
	if opts.Verbose {
		level = obs.LevelDebug
	}
	eng := screen.NewEngine(reg)
	r, _, err := newDaemonRadar(reg, base, blocks, lbls, eng, confirmed, opts, obs.New(os.Stderr, level))
	if err != nil {
		return err
	}
	st := r.Status()
	log.Printf("radar: starting at cursor %d (resume=%v checkpoint=%q)", st.Cursor, opts.Resume, opts.Checkpoint)

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		if err := r.Run(runCtx); err != nil && err != context.Canceled {
			log.Printf("radar: run loop: %v", err)
		}
	}()

	handler := &rpc.Server{Screen: eng, Radar: r, Labels: lbls, Metrics: reg, Limits: opts.Limits}
	srv := handler.HTTPServer(opts.Listen)
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("radar: serving daas_radarStatus/daas_radarUpdates + daas_screen* on %s", opts.Listen)

	// Graceful drain, daemon first: on SIGINT/SIGTERM stop stepping (the
	// in-flight step finishes and checkpoints at its block boundary),
	// then let in-flight RPC requests complete before the listener goes
	// away.
	serveCtx, serveCancel := context.WithCancel(context.Background())
	go func() {
		defer serveCancel()
		<-sigCtx.Done()
		log.Printf("radar: received shutdown signal, draining")
		cancelRun()
		<-runDone
		fin := r.Status()
		log.Printf("radar: stopped at cursor %d (%d contracts, %d families, %d swaps, %d reorgs)",
			fin.Cursor, fin.Stats.Contracts, fin.Families, fin.Swaps, fin.Reorgs)
	}()
	return rpc.GracefulServe(serveCtx, srv, 5*time.Second)
}

// newDaemonRadar assembles the daemon's radar over base. Its source
// stack is daas.NewStack's uncached top, integrity → metrics → leaf:
// no fetch cache, because a cached receipt would outlive a reorg.
// Retries happen inside base when it is an rpc.Client (its Retry
// policy); a read that still fails fails the step, and Run undoes the
// partial block and ingests it again on the next tick. The integrity
// layer pins every record the radar admits; on a reorg the radar
// releases the pins above the fork through the returned handle, so
// rolled-back evidence cannot linger in the quarantine ledger.
func newDaemonRadar(reg *obs.Registry, base core.ChainSource, blocks radar.BlockSource, lbls *labels.Directory,
	eng *screen.Engine, confirmed []string, opts radarOptions, logger *obs.Logger) (*radar.Radar, *integrity.Source, error) {
	src := daas.NewStack(base, daas.StackConfig{Metrics: reg}).Checked
	r, err := radar.New(radar.Config{
		Source:         src,
		Blocks:         blocks,
		Labels:         lbls,
		Engine:         eng,
		Domains:        confirmed,
		PollInterval:   opts.Poll,
		ReorgWindow:    opts.ReorgWindow,
		CheckpointPath: opts.Checkpoint,
		Resume:         opts.Resume,
		Pins:           src,
		Metrics:        reg,
		Logger:         logger,
	})
	return r, src, err
}
