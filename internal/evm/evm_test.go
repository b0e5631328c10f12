package evm

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ethtypes"
)

// mockHost records interactions for assertions.
type mockHost struct {
	balances map[ethtypes.Address]ethtypes.Wei
	storage  map[ethtypes.Address]map[ethtypes.Hash]ethtypes.Hash
	calls    []mockCall
	logs     int
	callErr  error
	callRet  []byte
}

type mockCall struct {
	from, to ethtypes.Address
	value    ethtypes.Wei
	input    []byte
}

func newMockHost() *mockHost {
	return &mockHost{
		balances: make(map[ethtypes.Address]ethtypes.Wei),
		storage:  make(map[ethtypes.Address]map[ethtypes.Hash]ethtypes.Hash),
	}
}

func (h *mockHost) Balance(a ethtypes.Address) ethtypes.Wei { return h.balances[a] }

func (h *mockHost) StorageGet(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	return h.storage[a][k]
}

func (h *mockHost) StorageSet(a ethtypes.Address, k, v ethtypes.Hash) {
	if h.storage[a] == nil {
		h.storage[a] = make(map[ethtypes.Hash]ethtypes.Hash)
	}
	h.storage[a][k] = v
}

func (h *mockHost) Call(from, to ethtypes.Address, value ethtypes.Wei, input []byte, depth int) ([]byte, error) {
	h.calls = append(h.calls, mockCall{from, to, value, append([]byte{}, input...)})
	return h.callRet, h.callErr
}

func (h *mockHost) EmitLog(a ethtypes.Address, topics []ethtypes.Hash, data []byte) { h.logs++ }

func run(t *testing.T, code []byte, input []byte, value ethtypes.Wei, host Host) (Result, error) {
	t.Helper()
	if host == nil {
		host = newMockHost()
	}
	return Run(&Context{
		Code:   code,
		Self:   ethtypes.Addr("0x00000000000000000000000000000000000000c0"),
		Caller: ethtypes.Addr("0x00000000000000000000000000000000000000ca"),
		Value:  value,
		Input:  input,
		Gas:    1_000_000,
		Host:   host,
	})
}

// mustAssemble assembles a test program known to be well-formed.
func (a *Assembler) mustAssemble() []byte {
	code, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}

// returnTop is a code suffix that returns the top of stack as one word.
func returnTop(a *Assembler) []byte {
	return a.Op(PUSH0, MSTORE).PushInt(32).Op(PUSH0, RETURN).mustAssemble()
}

func wordResult(t *testing.T, res Result) *big.Int {
	t.Helper()
	if len(res.ReturnData) != 32 {
		t.Fatalf("return data length %d, want 32", len(res.ReturnData))
	}
	return new(big.Int).SetBytes(res.ReturnData)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		prog func(*Assembler) *Assembler
		want int64
	}{
		{"add", func(a *Assembler) *Assembler { return a.PushInt(2).PushInt(3).Op(ADD) }, 5},
		{"mul", func(a *Assembler) *Assembler { return a.PushInt(6).PushInt(7).Op(MUL) }, 42},
		{"sub", func(a *Assembler) *Assembler { return a.PushInt(3).PushInt(10).Op(SUB) }, 7},
		{"div", func(a *Assembler) *Assembler { return a.PushInt(4).PushInt(100).Op(DIV) }, 25},
		{"div by zero", func(a *Assembler) *Assembler { return a.PushInt(0).PushInt(9).Op(DIV) }, 0},
		{"mod", func(a *Assembler) *Assembler { return a.PushInt(7).PushInt(30).Op(MOD) }, 2},
		{"lt true", func(a *Assembler) *Assembler { return a.PushInt(5).PushInt(3).Op(LT) }, 1},
		{"gt false", func(a *Assembler) *Assembler { return a.PushInt(5).PushInt(3).Op(GT) }, 0},
		{"eq", func(a *Assembler) *Assembler { return a.PushInt(5).PushInt(5).Op(EQ) }, 1},
		{"iszero", func(a *Assembler) *Assembler { return a.PushInt(0).Op(ISZERO) }, 1},
		{"and", func(a *Assembler) *Assembler { return a.PushInt(0b1100).PushInt(0b1010).Op(AND) }, 0b1000},
		{"or", func(a *Assembler) *Assembler { return a.PushInt(0b1100).PushInt(0b1010).Op(OR) }, 0b1110},
		{"xor", func(a *Assembler) *Assembler { return a.PushInt(0b1100).PushInt(0b1010).Op(XOR) }, 0b0110},
		{"shl", func(a *Assembler) *Assembler { return a.PushInt(1).PushInt(4).Op(SHL) }, 16},
		{"shr", func(a *Assembler) *Assembler { return a.PushInt(16).PushInt(4).Op(SHR) }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := returnTop(c.prog(NewAssembler()))
			res, err := run(t, code, nil, ethtypes.Wei{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := wordResult(t, res); got.Int64() != c.want {
				t.Errorf("got %v, want %d", got, c.want)
			}
		})
	}
}

func TestArithmeticWraps(t *testing.T) {
	// max uint256 + 1 == 0
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	code := returnTop(NewAssembler().PushInt(1).Push(max).Op(ADD))
	res, err := run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Sign() != 0 {
		t.Error("2^256 did not wrap to 0")
	}
	// 0 - 1 == max uint256
	code = returnTop(NewAssembler().PushInt(1).PushInt(0).Op(SUB))
	res, err = run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Cmp(max) != 0 {
		t.Error("underflow did not wrap to 2^256-1")
	}
}

func TestCallValueAndCaller(t *testing.T) {
	code := returnTop(NewAssembler().Op(CALLVALUE))
	res, err := run(t, code, nil, ethtypes.Ether(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Cmp(ethtypes.Ether(3).Big()) != 0 {
		t.Error("CALLVALUE mismatch")
	}
	code = returnTop(NewAssembler().Op(CALLER))
	res, err = run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := wordResult(t, res); got.Cmp(new(big.Int).SetBytes([]byte{0xca})) != 0 {
		t.Errorf("CALLER = %x", got)
	}
}

func TestCalldata(t *testing.T) {
	input := make([]byte, 36)
	input[0], input[1], input[2], input[3] = 0xde, 0xad, 0xbe, 0xef
	input[35] = 0x07
	// selector := shr(224, calldataload(0))
	code := returnTop(NewAssembler().PushInt(0).Op(CALLDATALOAD).PushInt(224).Op(SHR))
	res, err := run(t, code, input, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 0xdeadbeef {
		t.Errorf("selector = %x", wordResult(t, res))
	}
	// arg0 := calldataload(4)
	code = returnTop(NewAssembler().PushInt(4).Op(CALLDATALOAD))
	res, err = run(t, code, input, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 7 {
		t.Errorf("arg0 = %v", wordResult(t, res))
	}
	// reads beyond calldata are zero-padded
	code = returnTop(NewAssembler().PushInt(1000).Op(CALLDATALOAD))
	res, err = run(t, code, input, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Sign() != 0 {
		t.Error("out-of-range calldataload not zero")
	}
	code = returnTop(NewAssembler().Op(CALLDATASIZE))
	res, _ = run(t, code, input, ethtypes.Wei{}, nil)
	if wordResult(t, res).Uint64() != 36 {
		t.Error("CALLDATASIZE mismatch")
	}
}

func TestStorage(t *testing.T) {
	host := newMockHost()
	// sstore(5, 99); return sload(5)
	code := returnTop(NewAssembler().
		PushInt(99).PushInt(5).Op(SSTORE).
		PushInt(5).Op(SLOAD))
	res, err := run(t, code, nil, ethtypes.Wei{}, host)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 99 {
		t.Error("storage round trip failed")
	}
}

func TestJumpLoop(t *testing.T) {
	// for i := 0; i < 10; i++ { sum += i }; return sum
	a := NewAssembler()
	a.PushInt(0) // sum
	a.PushInt(0) // i
	a.Label("loop")
	// stack: [sum, i]
	a.PushInt(10).Op(DUP1 + 1).Op(LT) // i < 10
	a.JumpIf("body")
	a.Jump("end")
	a.Label("body")
	a.Op(DUP1)           // sum i i
	a.Op(SWAP1 + 1)      // i i sum
	a.Op(ADD)            // i sum'
	a.Op(SWAP1)          // sum' i
	a.PushInt(1).Op(ADD) // sum' i+1
	a.Jump("loop")
	a.Label("end")
	a.Op(POP) // drop i
	code := returnTop(a)
	res, err := run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 45 {
		t.Errorf("loop sum = %v, want 45", wordResult(t, res))
	}
}

func TestBadJumpRejected(t *testing.T) {
	// Jump into the middle of a PUSH payload must fail.
	code := NewAssembler().PushInt(2).Op(JUMP).Op(JUMPDEST).Stop().mustAssemble()
	_, err := run(t, code, nil, ethtypes.Wei{}, nil)
	if !errors.Is(err, ErrBadJump) {
		t.Errorf("got %v, want ErrBadJump", err)
	}
}

func TestJumpdestInsidePushIsData(t *testing.T) {
	// PUSH2 0x5b5b embeds JUMPDEST bytes that must not be valid targets.
	a := NewAssembler()
	a.Op(PUSH1+1, 0x5b, 0x5b) // PUSH2 0x5b5b
	a.Op(POP)
	a.PushInt(1).Op(JUMP) // target 1 = first 0x5b byte, inside push data
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, code, nil, ethtypes.Wei{}, nil); !errors.Is(err, ErrBadJump) {
		t.Errorf("got %v, want ErrBadJump", err)
	}
}

func TestCallTransfersValue(t *testing.T) {
	host := newMockHost()
	to := ethtypes.Addr("0x000000000000000000000000000000000000beef")
	// call(gas, to, 123, 0, 0, 0, 0)
	a := NewAssembler()
	a.PushInt(0).PushInt(0).PushInt(0).PushInt(0) // outSize outOff inSize inOff
	a.PushInt(123).PushAddr(to).Op(GAS)
	a.Op(CALL)
	code := returnTop(a)
	res, err := run(t, code, nil, ethtypes.Wei{}, host)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 1 {
		t.Error("CALL did not push success")
	}
	if len(host.calls) != 1 {
		t.Fatalf("host saw %d calls", len(host.calls))
	}
	if host.calls[0].to != to || host.calls[0].value.Uint64() != 123 {
		t.Errorf("call = %+v", host.calls[0])
	}
}

func TestCallFailurePushesZero(t *testing.T) {
	host := newMockHost()
	host.callErr = errors.New("boom")
	a := NewAssembler()
	a.PushInt(0).PushInt(0).PushInt(0).PushInt(0)
	a.PushInt(0).PushInt(0xbeef).Op(GAS).Op(CALL)
	code := returnTop(a)
	res, err := run(t, code, nil, ethtypes.Wei{}, host)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Sign() != 0 {
		t.Error("failed CALL pushed non-zero")
	}
}

func TestRevertPreservesData(t *testing.T) {
	a := NewAssembler()
	a.PushInt(0xbad).Op(PUSH0, MSTORE).PushInt(32).Op(PUSH0, REVERT)
	res, err := run(t, a.mustAssemble(), nil, ethtypes.Wei{}, nil)
	if !errors.Is(err, ErrRevert) {
		t.Fatalf("got %v, want ErrRevert", err)
	}
	if !res.Reverted || new(big.Int).SetBytes(res.ReturnData).Uint64() != 0xbad {
		t.Error("revert data lost")
	}
}

func TestOutOfGasTerminatesLoop(t *testing.T) {
	a := NewAssembler()
	a.Label("spin").Jump("spin")
	_, err := run(t, a.mustAssemble(), nil, ethtypes.Wei{}, nil)
	if !errors.Is(err, ErrOutOfGas) {
		t.Errorf("got %v, want ErrOutOfGas", err)
	}
}

func TestStackUnderflowAndOverflow(t *testing.T) {
	if _, err := run(t, []byte{ADD}, nil, ethtypes.Wei{}, nil); !errors.Is(err, ErrStackUnderflow) {
		t.Errorf("underflow: got %v", err)
	}
	a := NewAssembler()
	a.PushInt(1)
	a.Label("again").Op(DUP1, DUP1).Jump("again")
	if _, err := run(t, a.mustAssemble(), nil, ethtypes.Wei{}, nil); !errors.Is(err, ErrStackOverflow) {
		t.Errorf("overflow: got %v", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	if _, err := run(t, []byte{0xfe}, nil, ethtypes.Wei{}, nil); !errors.Is(err, ErrInvalidOpcode) {
		t.Errorf("got %v, want ErrInvalidOpcode", err)
	}
}

func TestMemoryLimit(t *testing.T) {
	a := NewAssembler()
	a.PushInt(1).Push(new(big.Int).SetUint64(1 << 30)).Op(MSTORE)
	if _, err := run(t, a.mustAssemble(), nil, ethtypes.Wei{}, nil); !errors.Is(err, ErrMemoryLimit) {
		t.Errorf("got %v, want ErrMemoryLimit", err)
	}
}

func TestLogEmission(t *testing.T) {
	host := newMockHost()
	// LOG1 pops off, size, topic — push in reverse.
	code := NewAssembler().
		PushInt(0x1234). // topic (deepest)
		PushInt(0).      // size
		PushInt(0).      // off (top)
		Op(LOG0 + 1).
		Stop().mustAssemble()
	if _, err := run(t, code, nil, ethtypes.Wei{}, host); err != nil {
		t.Fatal(err)
	}
	if host.logs != 1 {
		t.Errorf("logs = %d, want 1", host.logs)
	}
}

func TestCodecopyRuntimeDeployPattern(t *testing.T) {
	// Deploy-style: codecopy(0, offset, size); return(0, size) — the
	// constructor idiom our templates use.
	runtime := NewAssembler().PushInt(7).Op(PUSH0, MSTORE).PushInt(32).Op(PUSH0, RETURN).mustAssemble()
	ctor := NewAssembler()
	ctor.PushInt(int64(len(runtime))) // size
	ctor.PushLabel("runtime")         // offset
	ctor.PushInt(0)                   // dest
	ctor.Op(CODECOPY)
	ctor.PushInt(int64(len(runtime))).PushInt(0).Op(RETURN)
	ctor.Mark("runtime")
	ctor.Op(runtime...)
	res, err := run(t, ctor.mustAssemble(), nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The constructor returns the runtime prefixed by the JUMPDEST from Label.
	got := res.ReturnData
	if !bytes.Contains(got, runtime[:4]) {
		t.Errorf("constructor returned %x, want to contain runtime prefix", got)
	}
}

func TestAssemblerErrors(t *testing.T) {
	if _, err := NewAssembler().Jump("nowhere").Assemble(); err == nil {
		t.Error("undefined label accepted")
	}
	a := NewAssembler().Label("x")
	if _, err := a.Label("x").Assemble(); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewAssembler().Push(big.NewInt(-1)).Assemble(); err == nil {
		t.Error("negative push accepted")
	}
	if _, err := NewAssembler().PushBytes(nil).Assemble(); err == nil {
		t.Error("empty PushBytes accepted")
	}
}

// Property: PUSH round-trips any uint64 through the interpreter.
func TestQuickPushReturn(t *testing.T) {
	f := func(v uint64) bool {
		code := returnTop(NewAssembler().Push(new(big.Int).SetUint64(v)))
		res, err := run(t, code, nil, ethtypes.Wei{}, nil)
		if err != nil {
			return false
		}
		return new(big.Int).SetBytes(res.ReturnData).Uint64() == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ADD on the EVM agrees with big-int addition mod 2^256.
func TestQuickAddMatchesBigInt(t *testing.T) {
	f := func(x, y uint64) bool {
		code := returnTop(NewAssembler().
			Push(new(big.Int).SetUint64(x)).
			Push(new(big.Int).SetUint64(y)).
			Op(ADD))
		res, err := run(t, code, nil, ethtypes.Wei{}, nil)
		if err != nil {
			return false
		}
		want := new(big.Int).Add(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		return new(big.Int).SetBytes(res.ReturnData).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExpOpcode(t *testing.T) {
	// 2^10 = 1024; EXP pops base then exponent.
	code := returnTop(NewAssembler().PushInt(10).PushInt(2).Op(EXP))
	res, err := run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 1024 {
		t.Errorf("2^10 = %v", wordResult(t, res))
	}
	// Wraps mod 2^256: 2^256 == 0.
	code = returnTop(NewAssembler().PushInt(256).PushInt(2).Op(EXP))
	res, err = run(t, code, nil, ethtypes.Wei{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Sign() != 0 {
		t.Error("2^256 did not wrap")
	}
}

func TestTimestampAndNumber(t *testing.T) {
	code := returnTop(NewAssembler().Op(TIMESTAMP))
	res, err := Run(&Context{Code: code, Gas: 100000, Host: newMockHost(), Time: 1700000123, BlockNumber: 42})
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(res.ReturnData).Int64() != 1700000123 {
		t.Error("TIMESTAMP mismatch")
	}
	code = returnTop(NewAssembler().Op(NUMBER))
	res, err = Run(&Context{Code: code, Gas: 100000, Host: newMockHost(), BlockNumber: 42})
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(res.ReturnData).Uint64() != 42 {
		t.Error("NUMBER mismatch")
	}
}

func TestReturnData(t *testing.T) {
	host := newMockHost()
	host.callRet = []byte{0xaa, 0xbb, 0xcc}
	a := NewAssembler()
	// call(gas, 0xbeef, 0, 0,0,0,0)
	a.PushInt(0).PushInt(0).PushInt(0).PushInt(0).PushInt(0).PushInt(0xbeef).Op(GAS, CALL, POP)
	// returndatacopy(0, 1, 2); return mem[0:32]
	a.PushInt(2).PushInt(1).PushInt(0).Op(RETURNDATACOPY)
	a.Op(RETURNDATASIZE) // also check size
	code := returnTop(a)
	res, err := run(t, code, nil, ethtypes.Wei{}, host)
	if err != nil {
		t.Fatal(err)
	}
	if wordResult(t, res).Uint64() != 3 {
		t.Errorf("RETURNDATASIZE = %v, want 3", wordResult(t, res))
	}
	// Out-of-bounds returndatacopy hard-fails.
	b := NewAssembler()
	b.PushInt(0).PushInt(0).PushInt(0).PushInt(0).PushInt(0).PushInt(0xbeef).Op(GAS, CALL, POP)
	b.PushInt(10).PushInt(0).PushInt(0).Op(RETURNDATACOPY).Stop()
	if _, err := run(t, b.mustAssemble(), nil, ethtypes.Wei{}, host); err == nil {
		t.Error("out-of-bounds RETURNDATACOPY succeeded")
	}
}

// Property: random straight-line programs of pushes, DUPn, SWAPn and
// arithmetic leave the same stack as a math/big model that gives every
// word its own storage. The interpreter computes in place in reused
// stack slots, so a slot that shared its digits with another (a DUP
// that copied the word's header instead of its value, say) would let
// one word's arithmetic change the other, and this would fail.
func TestQuickStackOpsMatchBigInt(t *testing.T) {
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	wrap := func(v *big.Int) *big.Int { return v.And(v, mask) } // two's complement mod 2^256
	bool2 := func(b bool) *big.Int {
		if b {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	binops := []byte{ADD, MUL, SUB, DIV, MOD, EXP, AND, OR, XOR, LT, GT, EQ, SHL, SHR}
	model := func(op byte, a, b *big.Int) *big.Int {
		out := new(big.Int)
		switch op {
		case ADD:
			return wrap(out.Add(a, b))
		case MUL:
			return wrap(out.Mul(a, b))
		case SUB:
			return wrap(out.Sub(a, b))
		case DIV:
			if b.Sign() == 0 {
				return out
			}
			return out.Quo(a, b)
		case MOD:
			if b.Sign() == 0 {
				return out
			}
			return out.Rem(a, b)
		case EXP:
			return out.Exp(a, b, new(big.Int).Lsh(big.NewInt(1), 256))
		case AND:
			return out.And(a, b)
		case OR:
			return out.Or(a, b)
		case XOR:
			return out.Xor(a, b)
		case LT:
			return bool2(a.Cmp(b) < 0)
		case GT:
			return bool2(a.Cmp(b) > 0)
		case EQ:
			return bool2(a.Cmp(b) == 0)
		case SHL:
			if !a.IsUint64() || a.Uint64() > 255 {
				return out
			}
			return wrap(out.Lsh(b, uint(a.Uint64())))
		case SHR:
			if !a.IsUint64() || a.Uint64() > 255 {
				return out
			}
			return out.Rsh(b, uint(a.Uint64()))
		}
		panic("unknown op")
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		asm := NewAssembler()
		var stack []*big.Int // model; the top is the last element
		randWord := func() *big.Int {
			switch rng.IntN(4) {
			case 0: // small, so shifts, exponents and comparisons bite
				return big.NewInt(rng.Int64N(300))
			case 1:
				return new(big.Int).Set(mask)
			default:
				b := make([]byte, 1+rng.IntN(32))
				for i := range b {
					b[i] = byte(rng.Uint32())
				}
				return new(big.Int).SetBytes(b)
			}
		}
		for step := 0; step < 80; step++ {
			depth := len(stack)
			switch k := rng.IntN(10); {
			case depth < 2 || k < 2:
				if depth >= 64 {
					continue
				}
				v := randWord()
				asm.Push(v)
				stack = append(stack, v)
			case k < 4:
				n := 1 + rng.IntN(min(depth, 16))
				if depth >= 64 {
					continue
				}
				asm.Op(DUP1 + byte(n-1))
				stack = append(stack, new(big.Int).Set(stack[depth-n]))
			case k < 6:
				n := 1 + rng.IntN(min(depth-1, 16))
				asm.Op(SWAP1 + byte(n-1))
				stack[depth-1], stack[depth-1-n] = stack[depth-1-n], stack[depth-1]
			case k < 7:
				if rng.IntN(2) == 0 {
					asm.Op(ISZERO)
					stack[depth-1] = bool2(stack[depth-1].Sign() == 0)
				} else {
					asm.Op(NOT)
					stack[depth-1] = new(big.Int).Xor(stack[depth-1], mask)
				}
			default:
				op := binops[rng.IntN(len(binops))]
				asm.Op(op)
				a, b := stack[depth-1], stack[depth-2]
				stack = append(stack[:depth-2], model(op, a, b))
			}
		}
		// Store every word, top first, and return them all.
		for i := range stack {
			asm.PushInt(int64(32 * i)).Op(MSTORE)
		}
		asm.PushInt(int64(32*len(stack))).Op(PUSH0, RETURN)
		res, err := run(t, asm.mustAssemble(), nil, ethtypes.Wei{}, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range stack {
			want := stack[len(stack)-1-i]
			if got := new(big.Int).SetBytes(res.ReturnData[32*i : 32*i+32]); got.Cmp(want) != 0 {
				t.Logf("seed %d: word %d from the top = %x, want %x", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
