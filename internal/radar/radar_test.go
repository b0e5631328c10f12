package radar_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/faults"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// batchExport runs the one-shot pipeline and clusterer over the
// finished chain — the ground truth every radar test converges to.
func batchExport(t *testing.T, world *worldgen.World) (dsBytes, famBytes []byte) {
	t.Helper()
	p := &core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster.Clusterer{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	fams, err := cl.Cluster(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fj, err := json.MarshalIndent(fams, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), fj
}

func radarExport(t *testing.T, r *radar.Radar) (dsBytes, famBytes []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fj, err := json.MarshalIndent(r.Families(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), fj
}

func genWorld(t *testing.T, seed uint64) *worldgen.World {
	t.Helper()
	world, err := worldgen.Generate(worldgen.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// TestRadarMatchesBatchPipeline is the tentpole invariant: replaying
// the chain block-by-block through the radar yields a dataset and
// family export byte-identical to the one-shot pipeline — regardless
// of how block arrivals are batched into steps.
func TestRadarMatchesBatchPipeline(t *testing.T) {
	world := genWorld(t, 7)
	wantDS, wantFams := batchExport(t, world)

	for _, stepEvery := range []int{1, 7, 1 << 30} {
		f := chain.NewFollower(world.Chain)
		dst := f.Chain()
		r, err := radar.New(radar.Config{
			Source: core.LocalSource{Chain: dst},
			Blocks: radar.ChainBlocks{Chain: dst},
			Labels: world.Labels,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := f.Advance(); !ok {
				break
			}
			n++
			if n%stepEvery == 0 {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		gotDS, gotFams := radarExport(t, r)
		if !bytes.Equal(gotDS, wantDS) {
			t.Fatalf("stepEvery=%d: radar dataset export differs from batch pipeline", stepEvery)
		}
		if !bytes.Equal(gotFams, wantFams) {
			t.Fatalf("stepEvery=%d: radar family export differs from batch clusterer", stepEvery)
		}
		st := r.Status()
		if st.Cursor != world.Chain.BlockCount()-1 {
			t.Fatalf("stepEvery=%d: cursor %d, want %d", stepEvery, st.Cursor, world.Chain.BlockCount()-1)
		}
		if st.Stats.Contracts == 0 || st.Stats.Operators == 0 {
			t.Fatalf("stepEvery=%d: radar admitted nothing (stats %+v)", stepEvery, st.Stats)
		}
	}

	// A world with more operators than families: its batch clustering
	// merges through both §7.1 edge kinds, so the family half of the
	// gate sees unions, not only singletons.
	cfg := worldgen.TestConfig(7)
	for i := range cfg.Families {
		cfg.Families[i].Operators = 400
	}
	merging, err := worldgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantFams = batchExport(t, merging)
	assertBothEdgeKindsMerge(t, merging)
	rng := rand.New(rand.NewSource(1))
	for _, sched := range []struct {
		name string
		gap  func() int
	}{
		{"every block", func() int { return 1 }},
		{"every 7 blocks", func() int { return 7 }},
		{"one step", func() int { return 1 << 30 }},
		{"random 1-9", func() int { return 1 + rng.Intn(9) }},
	} {
		gotDS, gotFams := replayInSteps(t, merging, sched.gap)
		if !bytes.Equal(gotDS, wantDS) {
			t.Fatalf("merging world, %s: radar dataset export differs from batch pipeline", sched.name)
		}
		if !bytes.Equal(gotFams, wantFams) {
			t.Fatalf("merging world, %s: radar family export differs from batch clusterer", sched.name)
		}
	}
}

// assertBothEdgeKindsMerge fails the test unless the batch clusterer
// performs at least one direct and one shared-counterparty union on
// world.
func assertBothEdgeKindsMerge(t *testing.T, world *worldgen.World) {
	t.Helper()
	src := core.LocalSource{Chain: world.Chain}
	ds, err := (&core.Pipeline{Source: src, Labels: world.Labels}).Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := (&cluster.Clusterer{Source: src, Labels: world.Labels, Metrics: reg}).Cluster(ds); err != nil {
		t.Fatal(err)
	}
	merges := reg.CounterVec("daas_cluster_union_merges_total", "", "edge")
	for _, edge := range []string{"direct", "shared_counterparty"} {
		if merges.With(edge).Value() == 0 {
			t.Fatalf("batch clustering made no %s merge; the family gate would be vacuous", edge)
		}
	}
}

// replayInSteps replays world's chain through a fresh radar, calling
// Step after each run of gap() blocks, and returns the final exports.
func replayInSteps(t *testing.T, world *worldgen.World, gap func() int) (dsBytes, famBytes []byte) {
	t.Helper()
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
	})
	if err != nil {
		t.Fatal(err)
	}
	for next := gap(); ; {
		if _, ok := f.Advance(); !ok {
			break
		}
		if next--; next == 0 {
			if _, err := r.Step(); err != nil {
				t.Fatal(err)
			}
			next = gap()
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	return radarExport(t, r)
}

// TestRadarStaticAnnotationMatchesBatch repeats the byte-identity
// check with static fingerprint annotation enabled on both sides.
func TestRadarStaticAnnotationMatchesBatch(t *testing.T) {
	world := genWorld(t, 9)
	srcWorld := core.LocalSource{Chain: world.Chain}
	static := &core.StaticScreen{Source: srcWorld, Storage: srcWorld}

	p := &core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AnnotateFingerprints(static); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	srcDst := core.LocalSource{Chain: dst}
	r, err := radar.New(radar.Config{
		Source: srcDst,
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
		Static: &core.StaticScreen{Source: srcDst, Storage: srcDst},
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.ExportJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("annotated radar export differs from annotated batch export")
	}
}

// TestRadarCheckpointResume interrupts a radar mid-chain and resumes a
// fresh daemon from its checkpoint: the final export must be
// byte-identical to both an uninterrupted radar and the batch
// pipeline, and the update-feed cursor must stay monotonic across the
// resume.
func TestRadarCheckpointResume(t *testing.T) {
	world := genWorld(t, 7)
	wantDS, wantFams := batchExport(t, world)
	path := filepath.Join(t.TempDir(), "radar.ckpt")

	cfg := radar.Config{
		Labels:          world.Labels,
		CheckpointPath:  path,
		CheckpointEvery: 1,
	}

	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	cfg.Source = core.LocalSource{Chain: dst}
	cfg.Blocks = radar.ChainBlocks{Chain: dst}
	r1, err := radar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := int(world.Chain.BlockCount()) - 1
	for i := 0; i < total/2; i++ {
		if _, ok := f.Advance(); !ok {
			t.Fatal("journal exhausted early")
		}
		if _, err := r1.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st1 := r1.Status()
	if st1.Cursor == 0 {
		t.Fatal("interrupted radar never advanced")
	}
	// r1 is abandoned here — the "crash". A fresh daemon resumes from
	// its checkpoint against the same (still advancing) chain.
	cfg.Resume = true
	r2, err := radar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := r2.Status()
	if st2.Cursor != st1.Cursor {
		t.Fatalf("resumed cursor %d, want %d", st2.Cursor, st1.Cursor)
	}
	if st2.UpdateCursor != st1.UpdateCursor {
		t.Fatalf("resumed update cursor %d, want %d (feed must stay monotonic)", st2.UpdateCursor, st1.UpdateCursor)
	}
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
		if _, err := r2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r2.Step(); err != nil {
		t.Fatal(err)
	}
	gotDS, gotFams := radarExport(t, r2)
	if !bytes.Equal(gotDS, wantDS) {
		t.Fatal("resumed radar dataset export differs from batch pipeline")
	}
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatal("resumed radar family export differs from batch clusterer")
	}
}

// TestRadarReorgRollback stages a real reorg: the radar ingests an
// orphan block carrying the next canonical block's transactions (so
// admissions and timestamps genuinely diverge), the chain heals, and
// the radar must roll back to the fork and reconverge to the batch
// export.
func TestRadarReorgRollback(t *testing.T) {
	world := genWorld(t, 7)
	wantDS, wantFams := batchExport(t, world)

	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int(world.Chain.BlockCount()) - 1
	for i := 0; i < total/2; i++ {
		if _, ok := f.Advance(); !ok {
			t.Fatal("journal exhausted early")
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Build the orphan from the next canonical block's transactions,
	// mined at a different timestamp: same txs, different receipts.
	next, err := world.Chain.BlockByNumber(dst.BlockCount())
	if err != nil {
		t.Fatal(err)
	}
	var orphanTxs []*chain.Transaction
	for _, h := range next.TxHashes {
		tx, err := world.Chain.Transaction(h)
		if err != nil {
			t.Fatal(err)
		}
		orphanTxs = append(orphanTxs, tx)
	}
	tip, err := dst.BlockByNumber(dst.BlockCount() - 1)
	if err != nil {
		t.Fatal(err)
	}
	orphan := f.MineOrphan(tip.Timestamp.Add(13*time.Second), orphanTxs...)
	if _, err := r.Step(); err != nil { // ingest the orphan
		t.Fatal(err)
	}
	if got := r.Status().Cursor; got != orphan.Number {
		t.Fatalf("radar did not follow the orphan: cursor %d, want %d", got, orphan.Number)
	}

	f.Heal()
	if _, err := r.Step(); err != nil { // detect + roll back
		t.Fatal(err)
	}
	if got := r.Status().Reorgs; got != 1 {
		t.Fatalf("reorg count %d, want 1", got)
	}
	ups, _, _ := r.Updates(0, 0)
	sawReorg := false
	for _, u := range ups {
		if u.Kind == radar.KindReorg {
			sawReorg = true
		}
	}
	if !sawReorg {
		t.Fatal("no reorg entry in the update feed")
	}

	for {
		if _, ok := f.Advance(); !ok {
			break
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	gotDS, gotFams := radarExport(t, r)
	if !bytes.Equal(gotDS, wantDS) {
		t.Fatal("post-reorg radar dataset export differs from batch pipeline")
	}
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatal("post-reorg radar family export differs from batch clusterer")
	}
}

// TestRadarUpdatesCursorSemantics checks the feed contract: cursors
// are monotonic, pagination by cursor never re-delivers, and a
// consumer behind the ring sees dropped=true.
func TestRadarUpdatesCursorSemantics(t *testing.T) {
	world := genWorld(t, 7)
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	r, err := radar.New(radar.Config{
		Source: core.LocalSource{Chain: dst},
		Blocks: radar.ChainBlocks{Chain: dst},
		Labels: world.Labels,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	var got []radar.Update
	cursor := uint64(0)
	for {
		page, latest, dropped := r.Updates(cursor, 3)
		if dropped {
			t.Fatal("fresh consumer reported dropped entries")
		}
		if len(page) == 0 {
			if cursor != latest {
				t.Fatalf("drained at cursor %d but latest is %d", cursor, latest)
			}
			break
		}
		for _, u := range page {
			if u.Cursor <= cursor {
				t.Fatalf("non-monotonic cursor %d after %d", u.Cursor, cursor)
			}
			cursor = u.Cursor
			got = append(got, u)
		}
	}
	if len(got) == 0 {
		t.Fatal("no updates emitted for a full chain replay")
	}
	kinds := map[string]int{}
	for _, u := range got {
		kinds[u.Kind]++
	}
	if kinds[radar.KindContract] == 0 || kinds[radar.KindOperator] == 0 {
		t.Fatalf("missing admission kinds in feed: %v", kinds)
	}
	if kinds[radar.KindFamilyContract] == 0 {
		t.Fatalf("missing family_contract entries in feed: %v", kinds)
	}
}

// TestRadarSoakConcurrent is the race-checked daemon soak: the radar
// Runs against a chain advancing in another goroutine through the
// daemon's source stack (integrity over the leaf, no retry layer) with
// faults injected at the leaf, survives one forced reorg, and serves
// Status/Updates/screen queries concurrently. Each injected fault fails
// a step; Run undoes the partial block and ingests it again on the
// next tick. After the dust settles the export must equal the batch
// pipeline's (the faults are read errors and dry up, so the integrity
// layer quarantines nothing).
func TestRadarSoakConcurrent(t *testing.T) {
	world := genWorld(t, 11)
	wantDS, wantFams := batchExport(t, world)

	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	reg := obs.NewRegistry()
	inj := faults.NewInjector(faults.Plan{Seed: 3, Rate: 0.01, MaxFaults: 25}, reg)
	src := integrity.NewSource(core.NewLeaf(faults.WrapSource(core.LocalSource{Chain: dst}, inj), reg),
		integrity.NewQuarantine(reg), reg)
	eng := screen.NewEngine(reg)
	r, err := radar.New(radar.Config{
		Source:       src,
		Blocks:       radar.ChainBlocks{Chain: dst},
		Labels:       world.Labels,
		Engine:       eng,
		PollInterval: time.Millisecond,
		Pins:         src,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = r.Run(ctx)
	}()

	total := int(world.Chain.BlockCount()) - 1
	var probe ethtypes.Address
	for i := 0; ; i++ {
		if _, ok := f.Advance(); !ok {
			break
		}
		if i == total/2 {
			// Forced reorg: orphan an empty block, give the radar a
			// moment to follow it, then heal.
			tip, err := dst.BlockByNumber(dst.BlockCount() - 1)
			if err != nil {
				t.Fatal(err)
			}
			f.MineOrphan(tip.Timestamp.Add(7 * time.Second))
			time.Sleep(5 * time.Millisecond)
			f.Heal()
		}
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
			st := r.Status()
			_, _, _ = r.Updates(st.UpdateCursor, 16)
			eng.Screen(probe)
			eng.ScreenDomain("wallet-sync.example")
		}
	}

	// Wait for the daemon to drain the chain, then stop it and settle.
	head := dst.BlockCount() - 1
	deadline := time.Now().Add(30 * time.Second)
	for r.Status().Cursor != head {
		if time.Now().After(deadline) {
			t.Fatalf("radar stalled at cursor %d, head %d", r.Status().Cursor, head)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-runDone
	for {
		advanced, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !advanced {
			break
		}
	}

	gotDS, gotFams := radarExport(t, r)
	if !bytes.Equal(gotDS, wantDS) {
		t.Fatal("soak radar dataset export differs from batch pipeline")
	}
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatal("soak radar family export differs from batch clusterer")
	}
	if eng.Snapshot() == nil {
		t.Fatal("engine never received a snapshot swap")
	}
	if inj.Faults() == 0 {
		t.Fatal("fault injector never fired — the soak exercised nothing")
	}
	n := reg.Counter("daas_radar_step_errors_total", "").Value()
	if n == 0 {
		t.Fatalf("%d faults injected but no step failed", inj.Faults())
	}
	t.Logf("%d faults injected, %d steps failed", inj.Faults(), n)
}

// TestRadarReorgFeedHasNoDuplicates rolls back to a fork block that is
// not a multiple of the reorg window and reads the update feed the way
// a consumer is told to: a reorg entry drops every held entry of a
// later block. No admission at or below the fork may follow the reorg
// entry, and the consumer must end up holding each exported account
// exactly once.
func TestRadarReorgFeedHasNoDuplicates(t *testing.T) {
	const window = 32
	world := genWorld(t, 7)
	ds, err := (&core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}).Build()
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	r, err := radar.New(radar.Config{
		Source:      core.LocalSource{Chain: dst},
		Blocks:      radar.ChainBlocks{Chain: dst},
		Labels:      world.Labels,
		ReorgWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}

	type account struct{ kind, addr string }
	held := map[account][]uint64{} // the blocks of the held admissions
	var after, fork uint64
	reorged := false
	consume := func() {
		t.Helper()
		ups, _, dropped := r.Updates(after, 0)
		if dropped {
			t.Fatal("consumer fell behind the feed")
		}
		for _, u := range ups {
			after = u.Cursor
			switch u.Kind {
			case radar.KindReorg:
				for a, blocks := range held {
					blocks = slices.DeleteFunc(blocks, func(b uint64) bool { return b > u.Block })
					if len(blocks) == 0 {
						delete(held, a)
					} else {
						held[a] = blocks
					}
				}
			case radar.KindContract, radar.KindOperator, radar.KindAffiliate:
				if reorged && u.Block <= fork {
					t.Fatalf("%s %s admitted at block %d follows the reorg to block %d", u.Kind, u.Address, u.Block, fork)
				}
				a := account{u.Kind, u.Address}
				held[a] = append(held[a], u.Block)
			}
		}
	}
	step := func() {
		t.Helper()
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		consume()
	}

	// Fork at a block off the window grid, just after an admission.
	total := int(world.Chain.BlockCount()) - 1
	for i := 0; i < total/2; i++ {
		f.Advance()
	}
	step()
	for {
		fork = r.Status().Cursor
		recent := false
		for _, blocks := range held {
			recent = recent || slices.ContainsFunc(blocks, func(b uint64) bool { return b > fork-fork%window })
		}
		if fork%window != 0 && recent {
			break
		}
		if _, ok := f.Advance(); !ok {
			t.Fatal("no admission off the window grid in the second half of the chain")
		}
		step()
	}
	radar.MineOrphans(t, world, f, 5)
	step()
	f.Heal()
	reorged = true
	step()
	if got := r.Status().Cursor; got != fork {
		t.Fatalf("rolled back to %d, want %d", got, fork)
	}
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
	}
	step()

	want := map[account]bool{}
	for a := range ds.Contracts {
		want[account{radar.KindContract, a.Hex()}] = true
	}
	for a := range ds.Operators {
		want[account{radar.KindOperator, a.Hex()}] = true
	}
	for a := range ds.Affiliates {
		want[account{radar.KindAffiliate, a.Hex()}] = true
	}
	for a, blocks := range held {
		if len(blocks) != 1 {
			t.Fatalf("consumer holds %s %s %d times (blocks %v)", a.kind, a.addr, len(blocks), blocks)
		}
		if !want[a] {
			t.Fatalf("consumer holds %s %s, which the batch export lacks", a.kind, a.addr)
		}
	}
	if len(held) != len(want) {
		t.Fatalf("consumer holds %d accounts, the batch export has %d", len(held), len(want))
	}
}

// TestRadarRandomReorgSweep replays a chain while a seeded schedule
// stages reorgs at random fork points, each orphaning a random number
// of blocks up to the reorg window. The run must end byte-identical to
// the batch export.
func TestRadarRandomReorgSweep(t *testing.T) {
	const window = 32
	world := genWorld(t, 7)
	wantDS, wantFams := batchExport(t, world)
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	eng := screen.NewEngine(nil)
	r, err := radar.New(radar.Config{
		Source:      core.LocalSource{Chain: dst},
		Blocks:      radar.ChainBlocks{Chain: dst},
		Labels:      world.Labels,
		Engine:      eng,
		ReorgWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		t.Helper()
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		radar.AssertMatchesScratch(t, r, eng, "random reorg sweep")
	}
	rng := rand.New(rand.NewSource(18))
	reorgs := 0
	for more := true; more; {
		for n := 1 + rng.Intn(2*window); n > 0 && more; n-- {
			_, more = f.Advance()
		}
		step()
		if rng.Intn(2) == 0 {
			radar.MineOrphans(t, world, f, 1+rng.Intn(window))
			step()
			f.Heal()
			step()
			reorgs++
		}
	}
	if got := r.Status().Reorgs; got != reorgs {
		t.Fatalf("radar rolled back %d times, the schedule staged %d reorgs", got, reorgs)
	}
	gotDS, gotFams := radarExport(t, r)
	if !bytes.Equal(gotDS, wantDS) {
		t.Fatal("radar dataset export after random reorgs differs from batch pipeline")
	}
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatal("radar family export after random reorgs differs from batch clusterer")
	}
}
