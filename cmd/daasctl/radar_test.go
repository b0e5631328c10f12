package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// TestDaemonRadarStack drives the daemon's radar assembly over a local
// world: one Step records daas_chain_* requests, and a forced reorg
// releases the integrity pins through the handle the stack returns, so
// the re-mined transactions are admitted without a reorg-pin
// violation.
func TestDaemonRadarStack(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(w.Chain)
	dst := f.Chain()
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	r, pins, err := newDaemonRadar(reg, core.LocalSource{Chain: dst}, radar.ChainBlocks{Chain: dst}, w.Labels,
		screen.NewEngine(reg), nil, radarOptions{}, obs.New(&logs, obs.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}

	// Advance to mid-chain, stopping where the next canonical block
	// carries transactions for the orphan to steal.
	total := w.Chain.BlockCount() - 1
	var next *chain.Block
	for {
		if _, ok := f.Advance(); !ok {
			t.Fatal("journal exhausted before a non-empty block past mid-chain")
		}
		if dst.BlockCount() < total/2 {
			continue
		}
		if next, err = w.Chain.BlockByNumber(dst.BlockCount()); err != nil {
			t.Fatal(err)
		}
		if len(next.TxHashes) > 0 {
			break
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	var requests uint64
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == "daas_chain_requests_total" {
			for _, smp := range fam.Samples {
				requests += smp.Counter
			}
		}
	}
	if requests == 0 {
		t.Fatal("one Step recorded no daas_chain_requests_total")
	}

	// Orphan the next canonical block's transactions at a different
	// timestamp, ingest it, then heal and replay the canonical block.
	var orphanTxs []*chain.Transaction
	for _, h := range next.TxHashes {
		tx, err := w.Chain.Transaction(h)
		if err != nil {
			t.Fatal(err)
		}
		orphanTxs = append(orphanTxs, tx)
	}
	tip, err := dst.BlockByNumber(dst.BlockCount() - 1)
	if err != nil {
		t.Fatal(err)
	}
	f.MineOrphan(tip.Timestamp.Add(13*time.Second), orphanTxs...)
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	f.Heal()
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if got := r.Status().Reorgs; got != 1 {
		t.Fatalf("reorgs = %d, want 1", got)
	}
	if strings.Contains(logs.String(), "pins_released=0") || !strings.Contains(logs.String(), "pins_released=") {
		t.Fatalf("rollback released no pins:\n%s", logs.String())
	}
	if _, ok := f.Advance(); !ok {
		t.Fatal("journal exhausted")
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if q := pins.Quarantine().Total(); q != 0 {
		t.Errorf("re-mined transactions quarantined %d times; pins were not released", q)
	}
}
