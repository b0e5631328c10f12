package radar

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// stateBytes is the radar's checkpoint bytes with the counters a
// rollback keeps by design (reorgs, swaps, the update cursor) zeroed,
// so a rolled-back state compares equal to the state it returns to.
func stateBytes(t *testing.T, r *Radar) []byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	reorgs, swaps, cursor := r.reorgs, r.swaps, r.updateCursor
	r.reorgs, r.swaps, r.updateCursor = 0, 0, 0
	blob, err := r.marshalStateLocked()
	r.reorgs, r.swaps, r.updateCursor = reorgs, swaps, cursor
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func localRadar(t *testing.T, world *worldgen.World, src core.ChainSource, blocks BlockSource) *Radar {
	t.Helper()
	r, err := New(Config{Source: src, Blocks: blocks, Labels: world.Labels})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func step(t *testing.T, r *Radar) {
	t.Helper()
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
}

// advance moves the follower n canonical blocks on, or fewer when the
// chain runs out; it reports how many it moved.
func advance(f *chain.Follower, n int) int {
	for i := 0; i < n; i++ {
		if _, ok := f.Advance(); !ok {
			return i
		}
	}
	return n
}

// MineOrphans lets the package's external tests stage orphans too.
var MineOrphans = mineOrphans

// mineOrphans mines d blocks on the follower's chain that the source
// chain does not have. Each carries the transactions of the canonical
// block at its height, mined 13 s later, so the orphans admit and
// timestamp things the canonical blocks do differently.
func mineOrphans(t *testing.T, world *worldgen.World, f *chain.Follower, d int) {
	t.Helper()
	dst := f.Chain()
	for i := 0; i < d; i++ {
		var txs []*chain.Transaction
		if canon, err := world.Chain.BlockByNumber(dst.BlockCount()); err == nil {
			for _, h := range canon.TxHashes {
				tx, err := world.Chain.Transaction(h)
				if err != nil {
					t.Fatal(err)
				}
				txs = append(txs, tx)
			}
		}
		tip, err := dst.BlockByNumber(dst.BlockCount() - 1)
		if err != nil {
			t.Fatal(err)
		}
		f.MineOrphan(tip.Timestamp.Add(13*time.Second), txs...)
	}
}

// TestRollbackDepthSweep forks at every depth from 1 to the reorg
// window: the radar ingests a d-block orphan on top of block F, the
// chain heals, and after the rollback the radar's state must be the
// state it had at F, byte for byte.
func TestRollbackDepthSweep(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(world.Chain)
	eng := screen.NewEngine(nil)
	r, err := New(Config{Source: core.LocalSource{Chain: f.Chain()}, Blocks: ChainBlocks{Chain: f.Chain()}, Labels: world.Labels, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		t.Helper()
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		assertMatchesScratch(t, r, eng, "depth sweep")
	}
	w := r.window()
	gap := (int(world.Chain.BlockCount()) - 1 - w) / w
	if gap < 1 {
		t.Fatalf("chain of %d blocks is too short for a %d-depth sweep", world.Chain.BlockCount(), w)
	}
	for d := 1; d <= w; d++ {
		advance(f, gap)
		step()
		fork := r.cursor
		want := stateBytes(t, r)

		mineOrphans(t, world, f, d)
		step()
		if r.cursor != fork+uint64(d) {
			t.Fatalf("depth %d: radar at %d did not follow the orphans to %d", d, r.cursor, fork+uint64(d))
		}
		f.Heal()
		step()
		if r.cursor != fork {
			t.Fatalf("depth %d: rolled back to %d, want %d", d, r.cursor, fork)
		}
		if got := stateBytes(t, r); !bytes.Equal(got, want) {
			t.Fatalf("depth %d: state after rolling back to block %d differs from the state first seen there", d, fork)
		}
	}
}

// TestResumeThenReorgBelowResumeHead resumes a radar from a checkpoint
// taken on top of orphan blocks. The fork lies below the resume head,
// where the fresh journal has nothing to undo, so the radar must start
// over from genesis and reach the state a radar that never saw the
// orphans had at the fork.
func TestResumeThenReorgBelowResumeHead(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()
	r1 := localRadar(t, world, core.LocalSource{Chain: dst}, ChainBlocks{Chain: dst})
	advance(f, int(world.Chain.BlockCount()-1)/2)
	step(t, r1)
	fork := r1.cursor
	want := stateBytes(t, r1)

	mineOrphans(t, world, f, 3)
	step(t, r1)
	path := filepath.Join(t.TempDir(), "radar.ckpt")
	if _, err := core.WriteCheckpointFile(path, stateBytes(t, r1)); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r2, err := New(Config{Source: core.LocalSource{Chain: dst}, Blocks: ChainBlocks{Chain: dst},
		Labels: world.Labels, Metrics: reg, CheckpointPath: path, CheckpointEvery: 1 << 30, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if r2.cursor != fork+3 {
		t.Fatalf("resumed at %d, want %d", r2.cursor, fork+3)
	}
	f.Heal()
	step(t, r2)
	if r2.cursor != fork {
		t.Fatalf("resumed radar rolled back to %d, want %d", r2.cursor, fork)
	}
	if got := reg.Counter("daas_radar_blocks_total", "").Value(); got != fork {
		t.Fatalf("resumed radar ingested %d blocks after the reorg, want %d (a replay from genesis)", got, fork)
	}
	if got := stateBytes(t, r2); !bytes.Equal(got, want) {
		t.Fatal("state after the genesis fallback differs from the state first seen at the fork")
	}
}

// flakySource serves a chain as both the record and the block source
// of a radar, and finds the first receipt read of an operator's
// history walk, at or after block from, in a block where an absorb has
// asked for a contract's history: by then the absorb has recorded the
// contract and some of its splits. With fail set that read fails.
type flakySource struct {
	core.LocalSource
	from uint64
	fail bool
	// hit is the block of the read found, 0 before it.
	hit uint64
	// block is the block being ingested; absorbing is set once a
	// contract's history is asked for in it, walking while the latest
	// history asked for is an account's.
	block              uint64
	absorbing, walking bool
}

func (s *flakySource) Head() (uint64, error) { return ChainBlocks{Chain: s.Chain}.Head() }

func (s *flakySource) BlockRef(n uint64) (BlockRef, error) {
	s.block, s.absorbing, s.walking = n, false, false
	return ChainBlocks{Chain: s.Chain}.BlockRef(n)
}

func (s *flakySource) TransactionsOf(a ethtypes.Address) ([]ethtypes.Hash, error) {
	isContract, err := s.IsContract(a)
	if err != nil {
		return nil, err
	}
	s.absorbing = s.absorbing || isContract
	s.walking = !isContract
	return s.LocalSource.TransactionsOf(a)
}

func (s *flakySource) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	if s.hit == 0 && s.block >= s.from && s.absorbing && s.walking {
		s.hit = s.block
		if s.fail {
			return nil, errors.New("receipt read failed")
		}
	}
	return s.LocalSource.Receipt(h)
}

// TestFailsafeUndoesPartialBlock fails a receipt read midway through a
// block's absorb. The failed Step must leave the state exactly as it
// was before the block, and the radar must then converge to the batch
// export.
func TestFailsafeUndoesPartialBlock(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	// A clean replay finds the block to fail.
	f := chain.NewFollower(world.Chain)
	probe := &flakySource{LocalSource: core.LocalSource{Chain: f.Chain()}, from: (world.Chain.BlockCount() - 1) / 3}
	advance(f, int(world.Chain.BlockCount()))
	step(t, localRadar(t, world, probe, probe))
	if probe.hit == 0 {
		t.Fatal("no absorb admitted an operator")
	}

	f = chain.NewFollower(world.Chain)
	src := &flakySource{LocalSource: core.LocalSource{Chain: f.Chain()}, from: probe.hit, fail: true}
	r := localRadar(t, world, src, src)
	advance(f, int(probe.hit)-1)
	step(t, r)
	before, contracts := stateBytes(t, r), len(r.adm.DS.Contracts)
	advance(f, 1)
	if _, err := r.Step(); err == nil {
		t.Fatalf("block %d ingested without the failing read", probe.hit)
	}
	if got := stateBytes(t, r); !bytes.Equal(got, before) {
		t.Fatalf("state after the failed block %d differs from the state before it", probe.hit)
	}
	step(t, r)
	if r.cursor != probe.hit || len(r.adm.DS.Contracts) <= contracts {
		t.Fatalf("retried block %d: cursor %d, contracts %d -> %d; the failure did not interrupt an absorb",
			probe.hit, r.cursor, contracts, len(r.adm.DS.Contracts))
	}
	advance(f, int(world.Chain.BlockCount()))
	step(t, r)

	p := &core.Pipeline{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := r.ExportJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("radar export after the failsafe differs from the batch pipeline")
	}
	fams, err := (&cluster.Clusterer{Source: core.LocalSource{Chain: world.Chain}, Labels: world.Labels}).Cluster(ds)
	if err != nil {
		t.Fatal(err)
	}
	wantFams, _ := json.Marshal(fams)
	gotFams, _ := json.Marshal(r.Families())
	if !bytes.Equal(gotFams, wantFams) {
		t.Fatal("radar families after the failsafe differ from the batch clusterer's")
	}
}
