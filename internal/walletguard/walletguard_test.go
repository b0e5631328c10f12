package walletguard_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/walletguard"
	"repro/internal/worldgen"
)

var (
	operator  = ethtypes.Addr("0x0e00000000000000000000000000000000000001")
	affiliate = ethtypes.Addr("0xaf00000000000000000000000000000000000002")
	victim    = ethtypes.Addr("0x1c00000000000000000000000000000000000003")
	friend    = ethtypes.Addr("0xf100000000000000000000000000000000000004")
)

func ts() time.Time { return time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC) }

// setup deploys one profit-sharing contract and returns chain, guard,
// and the contract address (blacklisted).
func setup(t *testing.T) (*chain.Chain, *walletguard.Guard, ethtypes.Address) {
	t.Helper()
	c := chain.New(ts())
	c.Fund(victim, ethtypes.Ether(10))
	c.Fund(operator, ethtypes.Ether(1))
	initcode, err := contracts.Deploy(contracts.Spec{
		Style: contracts.StyleClaim, Operator: operator,
		OperatorPerMille: 200, Authorized: operator,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rs := c.Mine(ts(), &chain.Transaction{From: operator, Data: initcode})
	contractAddr := rs[0].ContractAddress

	g := walletguard.New(c)
	g.BlockAddress(contractAddr, "daas profit-sharing contract")
	g.BlockAddress(operator, "daas operator account")
	g.BlockDomain("uniswap-claim.com")
	return c, g, contractAddr
}

func to(a ethtypes.Address) *ethtypes.Address { return &a }

func TestScreenBlocksPhishingClaim(t *testing.T) {
	_, g, contractAddr := setup(t)
	data, _ := contracts.ClaimData("Claim(address)", affiliate)
	v := g.Screen(&chain.Transaction{
		From: victim, To: to(contractAddr), Value: ethtypes.Ether(10), Data: data,
	}, "")
	if !v.Block {
		t.Fatal("phishing claim not blocked")
	}
	codes := codeSet(v)
	for _, want := range []string{"recipient-blacklisted", "transfer-to-blacklist", "account-drain"} {
		if !codes[want] {
			t.Errorf("missing warning %s; got %v", want, codes)
		}
	}
	// The simulation must not have moved real funds.
	if g.BlacklistSize() != 2 {
		t.Errorf("blacklist size = %d", g.BlacklistSize())
	}
}

func TestScreenSimulationDoesNotCommit(t *testing.T) {
	c, g, contractAddr := setup(t)
	before := c.BalanceOf(victim)
	data, _ := contracts.ClaimData("Claim(address)", affiliate)
	g.Screen(&chain.Transaction{
		From: victim, To: to(contractAddr), Value: ethtypes.Ether(9), Data: data,
	}, "")
	if c.BalanceOf(victim).Cmp(before) != 0 {
		t.Error("Screen committed state changes")
	}
	if c.BalanceOf(operator).Cmp(ethtypes.Ether(1)) != 0 {
		t.Error("operator balance changed by simulation")
	}
}

func TestScreenAllowsBenignTransfer(t *testing.T) {
	_, g, _ := setup(t)
	v := g.Screen(&chain.Transaction{
		From: victim, To: to(friend), Value: ethtypes.Ether(1),
	}, "myfriend.example")
	if v.Block {
		t.Errorf("benign transfer blocked: %+v", v.Warnings)
	}
	// Partial transfers don't trigger the drain notice.
	for _, w := range v.Warnings {
		if w.Code == "account-drain" {
			t.Error("1-of-10 ETH transfer flagged as drain")
		}
	}
}

func TestScreenDrainNoticeWithoutBlacklist(t *testing.T) {
	_, g, _ := setup(t)
	// Sending the whole balance to an unknown account: notice, not
	// block.
	v := g.Screen(&chain.Transaction{
		From: victim, To: to(friend), Value: ethtypes.Ether(10),
	}, "")
	if v.Block {
		t.Error("full self-transfer to unlisted account hard-blocked")
	}
	if !codeSet(v)["account-drain"] {
		t.Errorf("drain notice missing: %+v", v.Warnings)
	}
}

func TestScreenPhishingDomain(t *testing.T) {
	_, g, _ := setup(t)
	v := g.Screen(&chain.Transaction{
		From: victim, To: to(friend), Value: ethtypes.Ether(1),
	}, "UNISWAP-CLAIM.com")
	if !v.Block || !codeSet(v)["drainer-website"] {
		t.Errorf("phishing origin not blocked: %+v", v.Warnings)
	}
}

func TestScreenRevertedSimulation(t *testing.T) {
	_, g, contractAddr := setup(t)
	// Call multicall unauthorized: reverts in simulation.
	mc, _ := contracts.MulticallData([]contracts.MulticallStep{{Target: friend}})
	v := g.Screen(&chain.Transaction{From: victim, To: to(contractAddr), Data: mc}, "")
	if !codeSet(v)["simulation-reverted"] {
		t.Errorf("revert not surfaced: %+v", v.Warnings)
	}
	// Recipient is still blacklisted, so the verdict blocks regardless.
	if !v.Block {
		t.Error("blacklisted recipient not blocked on revert")
	}
}

func TestLoadDatasetBlocksRecoveredAccounts(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TestConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{Source: core.LocalSource{Chain: w.Chain}, Labels: w.Labels}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walletguard.New(w.Chain)
	g.LoadDataset(ds)
	if g.BlacklistSize() != ds.AccountCount() {
		t.Errorf("blacklist %d != dataset accounts %d", g.BlacklistSize(), ds.AccountCount())
	}

	// Re-screening a planted phishing transaction must block it.
	checked := 0
	for h, inc := range w.Truth.ProfitTxs {
		tx, err := w.Chain.Transaction(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, isVictim := w.Truth.VictimLossUSD[tx.From]; !isVictim {
			continue // operator-originated (multicall / NFT proceeds)
		}
		v := g.Screen(tx, "")
		if !v.Block {
			t.Errorf("planted phishing tx %s not blocked (incident kind %v)", h, inc.Kind)
		}
		checked++
		if checked >= 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no victim-signed phishing txs screened")
	}
}

func TestWarningOrderingDeterministic(t *testing.T) {
	_, g, contractAddr := setup(t)
	data, _ := contracts.ClaimData("Claim(address)", affiliate)
	tx := &chain.Transaction{From: victim, To: to(contractAddr), Value: ethtypes.Ether(9), Data: data}
	a := g.Screen(tx, "uniswap-claim.com")
	b := g.Screen(tx, "uniswap-claim.com")
	if len(a.Warnings) != len(b.Warnings) {
		t.Fatal("verdicts differ across runs")
	}
	for i := range a.Warnings {
		if a.Warnings[i].Code != b.Warnings[i].Code {
			t.Fatal("warning order unstable")
		}
		if i > 0 && a.Warnings[i].Severity > a.Warnings[i-1].Severity {
			t.Fatal("warnings not sorted by severity")
		}
	}
}

// TestGuardConcurrentReload screens while dataset reloads swap the
// snapshot underneath; under -race this is the regression gate for the
// old read/write race on the blacklist maps. Every reload publishes
// the same logical blacklist, so verdicts must never waver.
func TestGuardConcurrentReload(t *testing.T) {
	_, g, contractAddr := setup(t)
	ds := core.NewDataset()
	ds.Contracts[contractAddr] = &core.ContractRecord{Address: contractAddr, FirstSeen: ts(), LastSeen: ts()}
	ds.Operators[operator] = &core.AccountRecord{Address: operator, FirstSeen: ts(), LastSeen: ts()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			g.LoadDataset(ds)
			g.BlockDomain("uniswap-claim.com")
		}
	}()
	data, _ := contracts.ClaimData("Claim(address)", affiliate)
	tx := &chain.Transaction{From: victim, To: to(contractAddr), Value: ethtypes.Ether(9), Data: data}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := g.Screen(tx, "uniswap-claim.com")
				if !v.Block {
					t.Error("phishing claim passed during reload")
					return
				}
				if !codeSet(v)["drainer-website"] {
					t.Error("blocked domain missed during reload")
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	// setup blocked contract+operator manually; the dataset re-adds the
	// same two addresses, so the final blacklist still holds exactly
	// them.
	if g.BlacklistSize() != 2 {
		t.Errorf("blacklist size = %d, want 2", g.BlacklistSize())
	}
}

func TestSeverityString(t *testing.T) {
	if walletguard.SeverityCritical.String() != "critical" ||
		walletguard.SeverityWarning.String() != "warning" ||
		walletguard.SeverityNotice.String() != "notice" {
		t.Error("severity strings wrong")
	}
}

func codeSet(v walletguard.Verdict) map[string]bool {
	out := make(map[string]bool)
	for _, w := range v.Warnings {
		out[w.Code] = true
	}
	return out
}

var _ = strings.ToLower
