package chain

import (
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/evm"
)

// script is a test native contract that runs a Go function.
type script func(env *CallEnv) ([]byte, error)

func (s script) Run(env *CallEnv) ([]byte, error) { return s(env) }

// dumpState renders every entry of the canonical state, so two states
// compare equal only if they hold the same entries with the same values.
func dumpState(c *Chain) map[string]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]string)
	for a, v := range c.canon.balances {
		out["balance/"+a.Hex()] = v.String()
	}
	for a, n := range c.canon.nonces {
		out["nonce/"+a.Hex()] = fmt.Sprint(n)
	}
	for a, code := range c.canon.code {
		out["code/"+a.Hex()] = hex.EncodeToString(code)
	}
	for k, v := range c.canon.storage {
		out["storage/"+k.addr.Hex()+"/"+k.key.Hex()] = v.Hex()
	}
	return out
}

func diffDumps(t *testing.T, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s = %q, want %q", k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected entry %s = %q", k, g)
		}
	}
}

var (
	outerAddr  = ethtypes.Addr("0x0000000000000000000000000000000000000a01")
	middleAddr = ethtypes.Addr("0x0000000000000000000000000000000000000a02")
	leafAddr   = ethtypes.Addr("0x0000000000000000000000000000000000000a03")
	slot1      = ethtypes.Hash{31: 1}
	slot2      = ethtypes.Hash{31: 2}
)

// writeEverything makes the calling frame write a storage word, move
// ETH to bob, deploy a contract through the chain's CREATE path, and
// call the leaf contract, which writes its own storage: every kind of
// state write, in one frame and the frame below it. It returns the
// created address.
func writeEverything(t *testing.T, env *CallEnv) ethtypes.Address {
	env.StorageSet(slot1, ethtypes.Hash{31: 7})
	if _, err := env.Call(bob, ethtypes.Ether(1), nil); err != nil {
		t.Fatalf("transfer to bob: %v", err)
	}
	code := mustAssemble(evm.NewAssembler().Stop())
	created, err := env.ex.create(env.Self, ethtypes.Ether(1), deployRuntime(code))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if len(env.ex.st.codeAt(created)) == 0 {
		t.Fatal("create wrote no code")
	}
	if _, err := env.Call(leafAddr, ethtypes.Wei{}, nil); err != nil {
		t.Fatalf("leaf call: %v", err)
	}
	env.EmitLog([]ethtypes.Hash{slot1}, nil)
	return created
}

func leafContract(env *CallEnv) ([]byte, error) {
	env.StorageSet(slot1, ethtypes.Hash{31: 9})
	return nil, nil
}

// A 3-deep call whose middle frame writes a balance, storage and code
// and then fails: the caller succeeds, and only its own writes remain.
func TestJournalRevertsFailedMiddleFrame(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(10))
	c.Fund(outerAddr, ethtypes.Ether(5))
	var created ethtypes.Address
	c.RegisterNative(outerAddr, script(func(env *CallEnv) ([]byte, error) {
		env.StorageSet(slot1, ethtypes.Hash{31: 1})
		if _, err := env.Call(carol, ethtypes.Ether(1), nil); err != nil {
			return nil, err
		}
		if _, err := env.Call(middleAddr, ethtypes.Ether(3), nil); err == nil {
			t.Error("middle frame succeeded")
		}
		env.StorageSet(slot2, ethtypes.Hash{31: 2})
		return nil, nil
	}))
	c.RegisterNative(middleAddr, script(func(env *CallEnv) ([]byte, error) {
		created = writeEverything(t, env)
		return nil, errors.New("middle fails")
	}))
	c.RegisterNative(leafAddr, script(leafContract))

	want := dumpState(c)
	_, rs := c.Mine(t0(), &Transaction{From: alice, To: addrPtr(outerAddr)})
	if !rs[0].Status {
		t.Fatalf("outer call failed: %s", rs[0].Err)
	}
	if created.IsZero() {
		t.Fatal("middle frame never ran")
	}
	want["nonce/"+alice.Hex()] = "1"
	want["balance/"+outerAddr.Hex()] = ethtypes.Ether(4).String()
	want["balance/"+carol.Hex()] = ethtypes.Ether(1).String()
	want["storage/"+outerAddr.Hex()+"/"+slot1.Hex()] = ethtypes.Hash{31: 1}.Hex()
	want["storage/"+outerAddr.Hex()+"/"+slot2.Hex()] = ethtypes.Hash{31: 2}.Hex()
	diffDumps(t, dumpState(c), want)

	r := rs[0]
	if len(r.Transfers) != 1 || r.Transfers[0].To != carol {
		t.Errorf("transfers = %+v, want only the outer frame's transfer to carol", r.Transfers)
	}
	if len(r.Logs) != 0 {
		t.Errorf("logs = %+v, want none (the failed frame's log rolls back)", r.Logs)
	}
}

// A failing top-level transaction, a call or a creation, leaves the
// state exactly as it was, except that the sender's nonce advances.
func TestJournalFailedTransactionLeavesNoTrace(t *testing.T) {
	c := New(t0())
	c.Fund(alice, ethtypes.Ether(10))
	c.Fund(outerAddr, ethtypes.Ether(5))
	c.RegisterNative(outerAddr, script(func(env *CallEnv) ([]byte, error) {
		writeEverything(t, env)
		return nil, errors.New("outer fails")
	}))
	c.RegisterNative(leafAddr, script(leafContract))
	// Warm the sender's nonce entry so both the existing-entry and the
	// new-entry undo paths run.
	c.Mine(t0(), &Transaction{From: carol, To: addrPtr(bob)})

	before := dumpState(c)
	_, rs := c.Mine(t0(), &Transaction{From: alice, To: addrPtr(outerAddr), Value: ethtypes.Ether(2)})
	if rs[0].Status {
		t.Fatal("failing call succeeded")
	}
	want := maps.Clone(before)
	want["nonce/"+alice.Hex()] = "1"
	diffDumps(t, dumpState(c), want)

	// A creation whose constructor writes storage, then reverts.
	ctor := evm.NewAssembler().PushInt(5).PushInt(0).Op(evm.SSTORE).Revert()
	_, rs = c.Mine(t0(), &Transaction{From: carol, Value: ethtypes.Ether(0), Data: mustAssemble(ctor)})
	if rs[0].Status {
		t.Fatal("reverting constructor succeeded")
	}
	want["nonce/"+carol.Hex()] = "2"
	diffDumps(t, dumpState(c), want)
	if len(rs[0].Transfers)+len(rs[0].Logs)+len(rs[0].Approvals) != 0 {
		t.Errorf("failed receipt kept its fund flow: %+v", rs[0])
	}
}

// Simulate and StaticCall run state-writing calls in an overlay while
// Mine runs on another goroutine; the canonical state must end up equal
// to that of a chain that mined the same blocks alone. Run under -race.
func TestSimulateAndStaticCallLeaveCanonUntouched(t *testing.T) {
	writer := ethtypes.Addr("0x0000000000000000000000000000000000000b01")
	build := func() *Chain {
		c := New(t0())
		c.Fund(alice, ethtypes.Ether(1000))
		c.Fund(carol, ethtypes.Ether(1000))
		c.RegisterNative(writer, script(func(env *CallEnv) ([]byte, error) {
			var key ethtypes.Hash
			copy(key[:], env.Input)
			env.StorageSet(key, ethtypes.Hash{31: byte(len(env.Input))})
			if env.Value.Sign() > 0 {
				return env.Call(bob, env.Value, nil)
			}
			return nil, nil
		}))
		return c
	}
	const blocks = 200
	mine := func(c *Chain) {
		for i := 0; i < blocks; i++ {
			c.Mine(t0().Add(time.Duration(i)*time.Minute),
				&Transaction{From: alice, To: addrPtr(writer), Value: ethtypes.NewWei(1), Data: []byte{byte(i), 1}})
		}
	}
	ref := build()
	mine(ref)

	c := build()
	ctor := deployRuntime(mustAssemble(evm.NewAssembler().PushInt(1).PushInt(0).Op(evm.SSTORE).Stop()))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				input := []byte{byte(i), byte(g), 2}
				r := c.Simulate(&Transaction{From: carol, To: addrPtr(writer), Value: ethtypes.Ether(1), Data: input})
				if !r.Status {
					t.Errorf("simulated call failed: %s", r.Err)
					return
				}
				if r := c.Simulate(&Transaction{From: carol, Data: ctor}); !r.Status {
					t.Errorf("simulated creation failed: %s", r.Err)
					return
				}
				if _, err := c.StaticCall(writer, input); err != nil {
					t.Errorf("static call failed: %v", err)
					return
				}
			}
		}(g)
	}
	mine(c)
	close(done)
	wg.Wait()

	diffDumps(t, dumpState(c), dumpState(ref))
	if got, want := c.blocks[len(c.blocks)-1].Hash(), ref.blocks[len(ref.blocks)-1].Hash(); got != want {
		t.Errorf("head = %s, want %s", got, want)
	}
}
