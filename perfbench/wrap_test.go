package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/rpc"
	"repro/internal/worldgen"
)

// bareSource has none of the optional extensions.
type bareSource struct{}

func (bareSource) TransactionsOf(ethtypes.Address) ([]ethtypes.Hash, error) { return nil, nil }
func (bareSource) Transaction(ethtypes.Hash) (*chain.Transaction, error)    { return nil, nil }
func (bareSource) Receipt(ethtypes.Hash) (*chain.Receipt, error)            { return nil, nil }
func (bareSource) IsContract(ethtypes.Address) (bool, error)                { return false, nil }

func extensions(src core.ChainSource) [4]bool {
	_, x := src.(core.ContextSource)
	_, b := src.(core.BatchSource)
	_, c := src.(core.CodeSource)
	_, g := src.(core.StorageSource)
	return [4]bool{x, b, c, g}
}

func TestWrapSourceKeepsExactlyTheOptionalExtensions(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	local := core.LocalSource{Chain: world.Chain}
	sources := map[string]core.ChainSource{
		"bare":      bareSource{},
		"local":     local,
		"rpc":       rpc.NewClient("http://127.0.0.1:1"),
		"integrity": integrity.Wrap(local, nil, nil),
	}
	for name, src := range sources {
		want := extensions(src)
		if got := extensions(wrapSource(src, &sourceStats{})); got != want {
			t.Errorf("%s: wrapped source has extensions %v, the source itself %v", name, got, want)
		}
	}
}

func TestWrapSourceTimesAndForwards(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	local := core.LocalSource{Chain: world.Chain}
	var st sourceStats
	src := wrapSource(local, &st)
	blk, err := world.Chain.BlockByNumber(1)
	if err != nil || len(blk.TxHashes) == 0 {
		t.Fatalf("block 1: %v", err)
	}
	h := blk.TxHashes[0]
	got, err := src.Receipt(h)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := local.Receipt(h)
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatal("wrapped Receipt returned a different receipt")
	}
	if _, err := src.(core.CodeSource).Code(ethtypes.Address{}); err != nil {
		t.Fatal(err)
	}
	if calls, _ := st.load(); calls != 2 || st.receipts.Load() != 1 {
		t.Fatalf("counted %d calls and %d receipts, want 2 and 1", calls, st.receipts.Load())
	}
}
