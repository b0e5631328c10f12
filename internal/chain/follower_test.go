package chain_test

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/worldgen"
)

// TestFollowerReplayIdentical: re-executing the worldgen journal
// block-by-block must reproduce the source chain exactly — same block
// hashes (which cover number, timestamp, parent, and tx hashes), same
// transaction count. This is the foundation under the radar's
// byte-identity invariant.
func TestFollowerReplayIdentical(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()

	blocks := 0
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
		blocks++
	}
	if got, want := dst.BlockCount(), world.Chain.BlockCount(); got != want {
		t.Fatalf("replayed BlockCount = %d, want %d (advanced %d blocks)", got, want, blocks)
	}
	for n := uint64(0); n < dst.BlockCount(); n++ {
		src, err := world.Chain.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != src.Hash() {
			t.Fatalf("block %d hash mismatch: %s vs %s", n, got.Hash(), src.Hash())
		}
	}
	if got, want := dst.TxCount(), world.Chain.TxCount(); got != want {
		t.Fatalf("replayed TxCount = %d, want %d", got, want)
	}
}

// TestFollowerOrphanAndHeal stages a reorg mid-replay: an orphan block
// diverges the destination, Heal rebuilds it onto the canonical
// prefix, and the remaining replay converges to the source again.
func TestFollowerOrphanAndHeal(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := chain.NewFollower(world.Chain)
	dst := f.Chain()

	half := int(world.Chain.BlockCount() / 2)
	for i := 0; i < half; i++ {
		if _, ok := f.Advance(); !ok {
			t.Fatalf("journal exhausted after %d blocks, wanted %d", i, half)
		}
	}
	forkParent := dst.BlockCount() - 1

	tip, err := dst.BlockByNumber(forkParent)
	if err != nil {
		t.Fatal(err)
	}
	orphan := f.MineOrphan(tip.Timestamp.Add(13 * time.Second))
	if orphan.Number != forkParent+1 {
		t.Fatalf("orphan number = %d, want %d", orphan.Number, forkParent+1)
	}

	f.Heal()
	if got := dst.BlockCount(); got != forkParent+1 {
		t.Fatalf("healed BlockCount = %d, want %d", got, forkParent+1)
	}
	// The healed prefix matches the source, and the re-mined fork block
	// differs from the orphan.
	for {
		if _, ok := f.Advance(); !ok {
			break
		}
	}
	canon, err := dst.BlockByNumber(orphan.Number)
	if err != nil {
		t.Fatal(err)
	}
	if canon.Hash() == orphan.Hash() {
		t.Fatal("re-mined fork block has the orphan's hash")
	}
	for n := uint64(0); n < dst.BlockCount(); n++ {
		src, _ := world.Chain.BlockByNumber(n)
		got, _ := dst.BlockByNumber(n)
		if src == nil || got == nil || got.Hash() != src.Hash() {
			t.Fatalf("post-heal block %d diverges from source", n)
		}
	}
}
