// The race detector changes what escapes and drops sync.Pool entries
// at random, so allocation counts hold only in normal builds.

//go:build !race

package chain

import (
	"bytes"
	"testing"

	"repro/internal/ethtypes"
)

// recomputeHashAllocs bounds Transaction.RecomputeHash, which the
// integrity layer runs on every fetched transaction: the RLP encoding
// is hashed in parts from stack buffers, Data in place.
const recomputeHashAllocs = 0

func TestRecomputeHashAllocs(t *testing.T) {
	for _, tx := range []*Transaction{
		{Nonce: 7, From: alice, To: addrPtr(bob), Value: ethtypes.Ether(3), Data: bytes.Repeat([]byte{0xab}, 600), GasLimit: DefaultGasLimit},
		{From: alice, Data: []byte{0x01}},
	} {
		want := tx.RecomputeHash()
		got := testing.AllocsPerRun(100, func() {
			if tx.RecomputeHash() != want {
				t.Fatal("RecomputeHash is not deterministic")
			}
		})
		if got > recomputeHashAllocs {
			t.Errorf("RecomputeHash with %d data bytes: %v allocs, bound %d", len(tx.Data), got, recomputeHashAllocs)
		}
	}
}
