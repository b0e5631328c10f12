// The race detector changes what escapes and drops sync.Pool entries
// at random, so allocation counts hold only in normal builds.

//go:build !race

package contracts

import (
	"math/big"
	"testing"

	"repro/internal/chain"
	"repro/internal/ethabi"
	"repro/internal/ethtypes"
	"repro/internal/tokens"
)

// mineTheftAllocs bounds the allocations of mining one block holding
// one ERC-20 multicall theft (two transferFrom pulls), the transaction
// that dominates world generation. It counts everything Mine keeps:
// the block, receipt, logs, transfers and index entries.
const mineTheftAllocs = 46

func TestMineMulticallTheftAllocs(t *testing.T) {
	c := newChain(t)
	c.RegisterNative(usdcAddr, tokens.NewERC20(usdcAddr, "USDC", deployer))
	addr := deploySpec(t, c, Spec{
		Style: StyleClaim, Operator: operator,
		OperatorPerMille: 200, Authorized: authorized,
	})
	const runs = 200
	supply := big.NewInt(1000 * (runs + 1))
	mint, _ := ethabi.EncodeCall("mint(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{victim, supply})
	approve, _ := ethabi.EncodeCall("approve(address,uint256)",
		[]ethabi.Type{ethabi.AddressT, ethabi.Uint256T}, []any{addr, supply})
	c.Mine(ts(), &chain.Transaction{From: deployer, To: to(usdcAddr), Data: mint},
		&chain.Transaction{From: victim, To: to(usdcAddr), Data: approve})
	var steps []MulticallStep
	for _, leg := range []struct {
		dst    ethtypes.Address
		amount int64
	}{{operator, 200}, {affiliate, 800}} {
		payload, err := ethabi.EncodeCall("transferFrom(address,address,uint256)",
			[]ethabi.Type{ethabi.AddressT, ethabi.AddressT, ethabi.Uint256T},
			[]any{victim, leg.dst, big.NewInt(leg.amount)})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, MulticallStep{Target: usdcAddr, Payload: payload})
	}
	mc, err := MulticallData(steps)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]chain.Transaction, runs+1)
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		tx := &txs[i]
		i++
		*tx = chain.Transaction{From: authorized, To: to(addr), Data: mc}
		if _, rs := c.Mine(ts(), tx); !rs[0].Status || len(rs[0].Transfers) != 2 {
			t.Fatalf("multicall did not pull both legs: %+v", rs[0])
		}
	})
	if got > mineTheftAllocs {
		t.Errorf("Mine of one multicall theft: %v allocs, bound %d", got, mineTheftAllocs)
	}
}
