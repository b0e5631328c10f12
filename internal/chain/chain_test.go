package chain

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/evm"
)

var (
	alice = ethtypes.Addr("0xa11ce00000000000000000000000000000000001")
	bob   = ethtypes.Addr("0xb0b0000000000000000000000000000000000002")
	carol = ethtypes.Addr("0xca40100000000000000000000000000000000003")
)

func t0() time.Time { return time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC) }

func addrPtr(a ethtypes.Address) *ethtypes.Address { return &a }

// mustAssemble assembles a test program known to be well-formed.
func mustAssemble(a *evm.Assembler) []byte {
	code, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}

func TestSimpleTransfer(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(10))

	_, rs := c.Mine(t0().Add(time.Hour), &Transaction{
		From: alice, To: addrPtr(bob), Value: ethtypes.Ether(3),
	})
	r := rs[0]
	if !r.Status {
		t.Fatalf("transfer failed: %s", r.Err)
	}
	if got := c.BalanceOf(bob); got.Cmp(ethtypes.Ether(3)) != 0 {
		t.Errorf("bob balance = %s", got)
	}
	if got := c.BalanceOf(alice); got.Cmp(ethtypes.Ether(7)) != 0 {
		t.Errorf("alice balance = %s", got)
	}
	if len(r.Transfers) != 1 {
		t.Fatalf("fund flow has %d transfers, want 1", len(r.Transfers))
	}
	tr := r.Transfers[0]
	if tr.From != alice || tr.To != bob || tr.Asset.Kind != AssetETH {
		t.Errorf("transfer edge = %+v", tr)
	}
}

func TestInsufficientFundsRollsBack(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(1))
	_, rs := c.Mine(t0(), &Transaction{
		From: alice, To: addrPtr(bob), Value: ethtypes.Ether(5),
	})
	if rs[0].Status {
		t.Fatal("overdraft succeeded")
	}
	if len(rs[0].Transfers) != 0 {
		t.Error("failed tx left transfers in receipt")
	}
	if got := c.BalanceOf(alice); got.Cmp(ethtypes.Ether(1)) != 0 {
		t.Errorf("alice balance changed: %s", got)
	}
	// Failed txs still consume the nonce.
	next := &Transaction{From: alice, To: addrPtr(bob), Value: ethtypes.Ether(0)}
	c.Mine(t0(), next)
	if next.Nonce != 1 {
		t.Errorf("nonce after failed tx = %d, want 1", next.Nonce)
	}
}

func TestNonceAssignmentAndHashing(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(10))
	tx1 := &Transaction{From: alice, To: addrPtr(bob), Value: ethtypes.Ether(1)}
	tx2 := &Transaction{From: alice, To: addrPtr(bob), Value: ethtypes.Ether(1)}
	c.Mine(t0(), tx1, tx2)
	if tx1.Nonce != 0 || tx2.Nonce != 1 {
		t.Errorf("nonces = %d, %d", tx1.Nonce, tx2.Nonce)
	}
	if tx1.Hash() == tx2.Hash() {
		t.Error("identical-field txs with different nonces share a hash")
	}
}

// splitContract returns runtime bytecode that forwards 30% of received
// ETH to op and 70% to aff — a minimal profit-sharing contract.
func splitContract(op, aff ethtypes.Address) []byte {
	a := evm.NewAssembler()
	// operator share = callvalue * 30 / 100
	a.PushInt(100).PushInt(30).Op(evm.CALLVALUE, evm.MUL, evm.DIV)
	// stack: [opShare]
	// call(gas, op, opShare, 0,0,0,0)
	a.PushInt(0).PushInt(0).PushInt(0).PushInt(0) // outSize outOff inSize inOff
	a.Op(evm.DUP1 + 4)                            // opShare
	a.PushAddr(op).Op(evm.GAS, evm.CALL, evm.POP)
	// affiliate share = callvalue - opShare
	a.Op(evm.CALLVALUE, evm.SUB) // stack: [aff = callvalue - opShare]
	a.PushInt(0).PushInt(0).PushInt(0).PushInt(0)
	a.Op(evm.DUP1 + 4)
	a.PushAddr(aff).Op(evm.GAS, evm.CALL, evm.POP)
	a.Op(evm.POP)
	a.Stop()
	return mustAssemble(a)
}

// deployRuntime wraps runtime code in a constructor that returns it.
func deployRuntime(runtime []byte) []byte {
	ctor := evm.NewAssembler()
	ctor.PushInt(int64(len(runtime)))
	ctor.PushLabel("rt")
	ctor.PushInt(0)
	ctor.Op(evm.CODECOPY)
	ctor.PushInt(int64(len(runtime))).PushInt(0).Op(evm.RETURN)
	ctor.Mark("rt")
	ctor.Op(runtime...)
	return mustAssemble(ctor)
}

func TestContractDeployAndProfitSharingFlow(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(20))

	deploy := &Transaction{From: alice, Data: deployRuntime(splitContract(bob, carol))}
	_, rs := c.Mine(t0(), deploy)
	if !rs[0].Status {
		t.Fatalf("deploy failed: %s", rs[0].Err)
	}
	contract := rs[0].ContractAddress
	if contract.IsZero() {
		t.Fatal("no contract address")
	}
	if want := CreateAddress(alice, 0); contract != want {
		t.Errorf("contract at %s, want CREATE address %s", contract, want)
	}
	if !c.IsContract(contract) {
		t.Error("deployed address has no code")
	}

	// Victim sends 10 ETH; contract splits 3/7.
	_, rs = c.Mine(t0().Add(time.Minute), &Transaction{
		From: alice, To: addrPtr(contract), Value: ethtypes.Ether(10),
	})
	r := rs[0]
	if !r.Status {
		t.Fatalf("phish tx failed: %s", r.Err)
	}
	if len(r.Transfers) != 3 {
		t.Fatalf("fund flow %d edges, want 3 (deposit + two shares)", len(r.Transfers))
	}
	if got := c.BalanceOf(bob); got.Cmp(ethtypes.Ether(3)) != 0 {
		t.Errorf("operator got %s, want 3 ETH", got)
	}
	if got := c.BalanceOf(carol); got.Cmp(ethtypes.Ether(7)) != 0 {
		t.Errorf("affiliate got %s, want 7 ETH", got)
	}
	// The two onward shares sit at depth 1.
	var onward int
	for _, tr := range r.Transfers {
		if tr.Depth == 1 && tr.From == contract {
			onward++
		}
	}
	if onward != 2 {
		t.Errorf("onward transfers = %d, want 2", onward)
	}
}

func TestNestedCallFailureRollsBackCalleeOnly(t *testing.T) {
	// Contract A calls contract B; B reverts after an SSTORE; A
	// continues (CALL pushes 0) and stores a success marker. B's write
	// must be rolled back, A's must persist.
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(1))

	bAsm := evm.NewAssembler().
		PushInt(1).PushInt(0).Op(evm.SSTORE). // sstore(0, 1)
		Revert()
	bCode := mustAssemble(bAsm)
	_, rs := c.Mine(t0(), &Transaction{From: alice, Data: deployRuntime(bCode)})
	bAddr := rs[0].ContractAddress

	aAsm := evm.NewAssembler()
	aAsm.PushInt(0).PushInt(0).PushInt(0).PushInt(0).PushInt(0)
	aAsm.PushAddr(bAddr).Op(evm.GAS, evm.CALL, evm.POP)
	aAsm.PushInt(7).PushInt(0).Op(evm.SSTORE) // sstore(0, 7) in A
	aAsm.Stop()
	_, rs = c.Mine(t0(), &Transaction{From: alice, Data: deployRuntime(mustAssemble(aAsm))})
	aAddr := rs[0].ContractAddress

	_, rs = c.Mine(t0(), &Transaction{From: alice, To: addrPtr(aAddr)})
	if !rs[0].Status {
		t.Fatalf("outer call failed: %s", rs[0].Err)
	}

	// Inspect storage through a probe execution.
	probe := func(target ethtypes.Address) uint64 {
		probeAsm := evm.NewAssembler().
			PushInt(0).Op(evm.SLOAD).
			Op(evm.PUSH0, evm.MSTORE).PushInt(32).Op(evm.PUSH0, evm.RETURN)
		code := mustAssemble(probeAsm)
		res, err := evm.Run(&evm.Context{Code: code, Self: target, Gas: 100000, Host: &readOnlyHost{c}})
		if err != nil {
			t.Fatal(err)
		}
		var v uint64
		for _, b := range res.ReturnData {
			v = v<<8 | uint64(b)
		}
		return v
	}
	if got := probe(bAddr); got != 0 {
		t.Errorf("B storage = %d, want 0 (rolled back)", got)
	}
	if got := probe(aAddr); got != 7 {
		t.Errorf("A storage = %d, want 7", got)
	}
}

// readOnlyHost adapts a sealed chain for probe executions in tests.
type readOnlyHost struct{ c *Chain }

func (h *readOnlyHost) Balance(a ethtypes.Address) ethtypes.Wei { return h.c.BalanceOf(a) }
func (h *readOnlyHost) StorageGet(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	h.c.mu.RLock()
	defer h.c.mu.RUnlock()
	return h.c.canon.storageGet(a, k)
}
func (h *readOnlyHost) StorageSet(a ethtypes.Address, k, v ethtypes.Hash) {}
func (h *readOnlyHost) Call(from, to ethtypes.Address, value ethtypes.Wei, input []byte, depth int) ([]byte, error) {
	return nil, nil
}
func (h *readOnlyHost) EmitLog(a ethtypes.Address, topics []ethtypes.Hash, data []byte) {}

func TestTransactionIndex(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(10))
	tx := &Transaction{From: alice, To: addrPtr(bob), Value: ethtypes.Ether(1)}
	c.Mine(t0(), tx)

	for _, who := range []ethtypes.Address{alice, bob} {
		hs := c.TransactionsOf(who)
		if len(hs) != 1 || hs[0] != tx.Hash() {
			t.Errorf("TransactionsOf(%s) = %v", who.Short(), hs)
		}
	}
	if hs := c.TransactionsOf(carol); len(hs) != 0 {
		t.Errorf("uninvolved account indexed: %v", hs)
	}
}

func TestBlockAndLookupAPI(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(2))
	tx := &Transaction{From: alice, To: addrPtr(bob), Value: ethtypes.Ether(1)}
	b, _ := c.Mine(t0().Add(time.Hour), tx)

	if b.Number != 1 || c.BlockCount() != 2 {
		t.Errorf("block numbering off: %d / %d", b.Number, c.BlockCount())
	}
	got, err := c.BlockByNumber(1)
	if err != nil || got.Hash() != b.Hash() {
		t.Errorf("BlockByNumber: %v, %v", got, err)
	}
	if _, err := c.BlockByNumber(99); err == nil {
		t.Error("out-of-range block lookup succeeded")
	}
	if _, err := c.Transaction(tx.Hash()); err != nil {
		t.Errorf("Transaction: %v", err)
	}
	r, err := c.Receipt(tx.Hash())
	if err != nil || r.BlockNumber != 1 || !r.Timestamp.Equal(t0().Add(time.Hour)) {
		t.Errorf("Receipt: %+v, %v", r, err)
	}
	if _, err := c.Receipt(ethtypes.Hash{1}); err == nil {
		t.Error("unknown receipt lookup succeeded")
	}
}

func TestCreateAddressDeterminism(t *testing.T) {
	a1 := CreateAddress(alice, 0)
	a2 := CreateAddress(alice, 1)
	a3 := CreateAddress(bob, 0)
	if a1 == a2 || a1 == a3 || a2 == a3 {
		t.Error("CREATE addresses collide")
	}
	if a1 != CreateAddress(alice, 0) {
		t.Error("CREATE address not deterministic")
	}
}

// Property: total ETH supply is conserved across arbitrary transfer
// sequences (successful or not).
func TestQuickSupplyConservation(t *testing.T) {
	f := func(seq []uint8) bool {
		c := New(t0())
		parties := []ethtypes.Address{alice, bob, carol}
		c.Fund(alice, ethtypes.Ether(100))
		supply := ethtypes.Ether(100)
		for i, s := range seq {
			from := parties[int(s)%3]
			to := parties[int(s>>2)%3]
			amount := ethtypes.Ether(int64(s % 7))
			c.Mine(t0().Add(time.Duration(i)*time.Minute),
				&Transaction{From: from, To: addrPtr(to), Value: amount})
		}
		total := ethtypes.Wei{}
		for _, p := range parties {
			total = total.Add(c.BalanceOf(p))
		}
		return total.Cmp(supply) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
