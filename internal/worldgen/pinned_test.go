package worldgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/chain"
	"repro/internal/ethtypes"
)

// TestWorldFingerprintPinned pins two generated worlds byte for byte:
// the head block hash (which covers every block and transaction hash)
// and a digest of every receipt field in block order. Unlike
// TestBuildDeterminism, which compares two runs of the same code, this
// fails on any change to the generator, the chain, the EVM or a native
// contract that moves what the study sees.
func TestWorldFingerprintPinned(t *testing.T) {
	paper := DefaultConfig(1)
	paper.Scale = 0.05 // the perfbench study and screen world
	for _, tc := range []struct {
		name     string
		cfg      Config
		head     string
		receipts string
	}{
		{
			name:     "test-5",
			cfg:      TestConfig(5),
			head:     "0x5fe0d922ed0120119c2cd42dfe6cc99bfc2f80104cd3d3d27a8e4942da169715",
			receipts: "98160213c6a04673fb0672bf98376408acc1d4c2dd363ba916ae2391783a7eb2",
		},
		{
			name:     "default-1-scale-0.05",
			cfg:      paper,
			head:     "0x5a6340a9b5fc3f3adcff4bfba5353f58175ab329c123b8fcb529b254836331ba",
			receipts: "a640cd00b4e35775b9be212a2848cf84c5ba6358fb69d873389d8dd1b7a52cb3",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			head, receipts := worldFingerprint(t, w.Chain)
			if head != tc.head {
				t.Errorf("head block hash = %s, want %s", head, tc.head)
			}
			if receipts != tc.receipts {
				t.Errorf("receipt digest = %s, want %s", receipts, tc.receipts)
			}
		})
	}
}

// worldFingerprint returns the head block hash and a sha256 over a
// fixed encoding of every receipt in block order.
func worldFingerprint(t *testing.T, c *chain.Chain) (head, receipts string) {
	t.Helper()
	d := sha256.New()
	n := c.BlockCount()
	var last *chain.Block
	for i := uint64(0); i < n; i++ {
		b, err := c.BlockByNumber(i)
		if err != nil {
			t.Fatal(err)
		}
		last = b
		for _, h := range b.TxHashes {
			r, err := c.Receipt(h)
			if err != nil {
				t.Fatal(err)
			}
			writeReceipt(d, r)
		}
	}
	return last.Hash().Hex(), hex.EncodeToString(d.Sum(nil))
}

func writeReceipt(d hash.Hash, r *chain.Receipt) {
	u := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	bs := func(b []byte) {
		u(uint64(len(b)))
		d.Write(b)
	}
	flag := func(b bool) {
		if b {
			u(1)
		} else {
			u(0)
		}
	}
	addr := func(a ethtypes.Address) { d.Write(a[:]) }
	wei := func(w ethtypes.Wei) {
		u(uint64(w.Sign() + 1))
		bs(w.Bytes())
	}

	flag(r.Status)
	u(r.GasUsed)
	addr(r.ContractAddress)
	u(uint64(len(r.Transfers)))
	for _, tr := range r.Transfers {
		u(uint64(tr.Asset.Kind))
		addr(tr.Asset.Token)
		u(tr.Asset.TokenID)
		addr(tr.From)
		addr(tr.To)
		wei(tr.Amount)
		u(uint64(tr.Depth))
	}
	u(uint64(len(r.Approvals)))
	for _, a := range r.Approvals {
		addr(a.Token)
		u(uint64(a.Kind))
		addr(a.Owner)
		addr(a.Spender)
		wei(a.Amount)
		flag(a.All)
	}
	u(uint64(len(r.Logs)))
	for _, l := range r.Logs {
		addr(l.Address)
		u(uint64(len(l.Topics)))
		for _, tp := range l.Topics {
			d.Write(tp[:])
		}
		bs(l.Data)
	}
	bs([]byte(r.Err))
}
