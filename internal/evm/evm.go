// Package evm implements a compact Ethereum Virtual Machine interpreter.
//
// The subset covers everything the drainer substrate's profit-sharing
// contracts need: the function-dispatch idiom (CALLDATALOAD / SHR / EQ /
// JUMPI), 256-bit arithmetic, memory, contract storage, value-bearing
// CALLs, and calldata loops — enough to deploy and execute real bytecode
// whose fund flows the measurement pipeline then classifies, and whose
// selectors the decompiler recovers (paper Table 3).
package evm

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/ethtypes"
)

// Opcode values implemented by the interpreter.
const (
	STOP           = 0x00
	ADD            = 0x01
	MUL            = 0x02
	SUB            = 0x03
	DIV            = 0x04
	MOD            = 0x06
	EXP            = 0x0a
	LT             = 0x10
	GT             = 0x11
	EQ             = 0x14
	ISZERO         = 0x15
	AND            = 0x16
	OR             = 0x17
	XOR            = 0x18
	NOT            = 0x19
	SHL            = 0x1b
	SHR            = 0x1c
	ADDRESS        = 0x30
	BALANCE        = 0x31
	CALLER         = 0x33
	CALLVALUE      = 0x34
	CALLDATALOAD   = 0x35
	CALLDATASIZE   = 0x36
	CALLDATACOPY   = 0x37
	CODESIZE       = 0x38
	CODECOPY       = 0x39
	RETURNDATASIZE = 0x3d
	RETURNDATACOPY = 0x3e
	TIMESTAMP      = 0x42
	NUMBER         = 0x43
	SELFBALANCE    = 0x47
	POP            = 0x50
	MLOAD          = 0x51
	MSTORE         = 0x52
	SLOAD          = 0x54
	SSTORE         = 0x55
	JUMP           = 0x56
	JUMPI          = 0x57
	PC             = 0x58
	GAS            = 0x5a
	JUMPDEST       = 0x5b
	PUSH0          = 0x5f
	PUSH1          = 0x60 // PUSH1..PUSH32 are 0x60..0x7f
	DUP1           = 0x80 // DUP1..DUP16 are 0x80..0x8f
	SWAP1          = 0x90 // SWAP1..SWAP16 are 0x90..0x9f
	LOG0           = 0xa0 // LOG0..LOG4 are 0xa0..0xa4
	CREATE         = 0xf0
	CALL           = 0xf1
	RETURN         = 0xf3
	DELEGATECALL   = 0xf4
	STATICCALL     = 0xfa
	REVERT         = 0xfd
)

// Interpreter limits.
const (
	// StackLimit is the maximum stack depth, per the yellow paper.
	StackLimit = 1024
	// CallDepthLimit bounds nested calls.
	CallDepthLimit = 1024
	// MemoryLimit bounds memory expansion to keep hostile bytecode cheap.
	MemoryLimit = 1 << 20
)

// Errors surfaced by execution. A REVERT is reported as ErrRevert with
// the return data preserved in the Result.
var (
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
	ErrBadJump        = errors.New("evm: jump to non-JUMPDEST")
	ErrOutOfGas       = errors.New("evm: out of gas")
	ErrInvalidOpcode  = errors.New("evm: invalid opcode")
	ErrMemoryLimit    = errors.New("evm: memory limit exceeded")
	ErrCallDepth      = errors.New("evm: call depth exceeded")
	ErrRevert         = errors.New("evm: execution reverted")
)

// Host is the chain-side interface the interpreter calls back into for
// anything outside pure computation: balances, storage, nested calls,
// and logs. internal/chain provides the production implementation.
type Host interface {
	// Balance returns the current balance of addr.
	Balance(addr ethtypes.Address) ethtypes.Wei
	// StorageGet reads a storage word of the executing contract.
	StorageGet(addr ethtypes.Address, key ethtypes.Hash) ethtypes.Hash
	// StorageSet writes a storage word of the executing contract.
	StorageSet(addr ethtypes.Address, key, val ethtypes.Hash)
	// Call performs a message call (value transfer plus execution of the
	// callee, which may be a native contract, EVM bytecode, or an EOA).
	Call(from, to ethtypes.Address, value ethtypes.Wei, input []byte, depth int) ([]byte, error)
	// EmitLog records a log entry for the executing contract.
	EmitLog(addr ethtypes.Address, topics []ethtypes.Hash, data []byte)
}

// CodeHost is an optional Host extension supplying deployed bytecode,
// which DELEGATECALL needs to run the callee's code inside the caller's
// storage context. Hosts that do not implement it treat DELEGATECALL
// targets like EOAs: the call succeeds with empty return data.
type CodeHost interface {
	// CodeOf returns the runtime bytecode deployed at addr, or nil.
	CodeOf(addr ethtypes.Address) []byte
}

// Context carries the immutable parameters of one execution frame.
type Context struct {
	Code   []byte
	Self   ethtypes.Address
	Caller ethtypes.Address
	Value  ethtypes.Wei
	Input  []byte
	Gas    uint64
	Depth  int
	Host   Host
	// Time and BlockNumber populate TIMESTAMP and NUMBER; zero values
	// are fine for code that does not read them.
	Time        int64
	BlockNumber uint64
}

// Result is the outcome of one execution frame.
type Result struct {
	ReturnData []byte
	GasUsed    uint64
	Reverted   bool
}

var (
	two256  = new(big.Int).Lsh(big.NewInt(1), 256)
	maxWord = new(big.Int).Sub(two256, big.NewInt(1))
)

// buffers are the stack, memory and jump table one execution reuses
// from the previous one, so a frame allocates nothing on the hot path.
type buffers struct {
	stack     []big.Int
	args      [7]*big.Int // popN's result
	mem       []byte
	jumpdests []uint64
}

var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// Run executes ctx.Code to completion and returns the result. A REVERT
// yields (Result{Reverted: true, ...}, ErrRevert); other failures yield
// their respective error with partial gas accounting.
func Run(ctx *Context) (Result, error) {
	if ctx.Depth > CallDepthLimit {
		return Result{}, ErrCallDepth
	}
	buf := bufferPool.Get().(*buffers)
	in := interp{buffers: buf, ctx: ctx, gas: ctx.Gas}
	in.mem = in.mem[:0]
	in.jumpdests = analyzeJumpdests(in.jumpdests, ctx.Code)
	res, err := in.run()
	bufferPool.Put(buf)
	return res, err
}

// analyzeJumpdests fills a bitmap of the valid JUMPDEST positions in
// code, skipping PUSH data, reusing dst's storage.
func analyzeJumpdests(dst []uint64, code []byte) []uint64 {
	n := (len(code) + 63) / 64
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	clear(dst)
	for pc := 0; pc < len(code); pc++ {
		op := code[pc]
		if op == JUMPDEST {
			dst[pc/64] |= 1 << (pc % 64)
		} else if op >= PUSH1 && op <= PUSH1+31 {
			pc += int(op-PUSH1) + 1
		}
	}
	return dst
}

// interp is one execution frame. The stack holds words by value: slots
// [0, sp) are live and each owns its digits, so pushes and arithmetic
// reuse a slot's storage instead of allocating. A pointer that pop,
// popN or peek returns stays valid until the next push.
type interp struct {
	*buffers
	ctx *Context
	sp  int
	gas uint64
	// retData holds the return data of the most recent nested CALL.
	retData []byte
}

func (in *interp) isJumpdest(dest uint64) bool {
	return dest < uint64(len(in.ctx.Code)) && in.jumpdests[dest/64]&(1<<(dest%64)) != 0
}

// push makes the next slot live and returns it for the caller to set.
func (in *interp) push() (*big.Int, error) {
	if in.sp >= StackLimit {
		return nil, ErrStackOverflow
	}
	if in.sp == len(in.stack) {
		in.stack = append(in.stack, big.Int{})
	}
	in.sp++
	return &in.stack[in.sp-1], nil
}

func (in *interp) pop() (*big.Int, error) {
	if in.sp == 0 {
		return nil, ErrStackUnderflow
	}
	in.sp--
	return &in.stack[in.sp], nil
}

// peek returns the top word, which an operation that pops one word and
// pushes one overwrites in place.
func (in *interp) peek() (*big.Int, error) {
	if in.sp == 0 {
		return nil, ErrStackUnderflow
	}
	return &in.stack[in.sp-1], nil
}

// popN pops n words; element 0 of the result is the former top.
func (in *interp) popN(n int) ([]*big.Int, error) {
	if in.sp < n {
		return nil, ErrStackUnderflow
	}
	for i := 0; i < n; i++ {
		in.args[i] = &in.stack[in.sp-1-i]
	}
	in.sp -= n
	return in.args[:n], nil
}

// charge deducts a flat per-opcode cost; hostile unbounded loops exhaust
// the frame's gas budget rather than hanging the simulator.
func (in *interp) charge(cost uint64) error {
	if in.gas < cost {
		in.gas = 0
		return ErrOutOfGas
	}
	in.gas -= cost
	return nil
}

func (in *interp) expandMem(offset, size uint64) error {
	if size == 0 {
		return nil
	}
	end := offset + size
	if end < offset || end > MemoryLimit {
		return ErrMemoryLimit
	}
	if uint64(len(in.mem)) < end {
		in.mem = append(in.mem, make([]byte, end-uint64(len(in.mem)))...)
	}
	return nil
}

func u64(v *big.Int) (uint64, bool) {
	if !v.IsUint64() {
		return 0, false
	}
	return v.Uint64(), true
}

func mod256(v *big.Int) *big.Int {
	if v.Sign() < 0 || v.BitLen() > 256 {
		v.Mod(v, two256)
	}
	return v
}

func setBool(v *big.Int, b bool) {
	if b {
		v.SetUint64(1)
	} else {
		v.SetUint64(0)
	}
}

// setWei sets v to w without copying w into a fresh big.Int.
func setWei(v *big.Int, w ethtypes.Wei) {
	var buf [32]byte
	v.SetBytes(w.AppendBytes(buf[:0]))
}

// wordAddress returns the address in the low 20 bytes of a word.
func wordAddress(v *big.Int) ethtypes.Address {
	var word [32]byte
	v.FillBytes(word[:])
	return ethtypes.BytesToAddress(word[32-ethtypes.AddressLength:])
}

func (in *interp) run() (Result, error) {
	ctx := in.ctx
	code := ctx.Code
	pc := 0
	for pc < len(code) {
		op := code[pc]
		if err := in.charge(opCost(op)); err != nil {
			return Result{GasUsed: ctx.Gas}, err
		}
		switch {
		case op == STOP:
			return Result{GasUsed: ctx.Gas - in.gas}, nil

		case op == ADD, op == MUL, op == SUB, op == DIV, op == MOD,
			op == EXP, op == AND, op == OR, op == XOR, op == LT, op == GT,
			op == EQ, op == SHL, op == SHR:
			if in.sp < 2 {
				return Result{}, ErrStackUnderflow
			}
			a, _ := in.pop()
			b, _ := in.peek()
			if err := binop(op, a, b); err != nil {
				return Result{}, err
			}
			pc++

		case op == ISZERO:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			setBool(v, v.Sign() == 0)
			pc++

		case op == NOT:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			v.Xor(maxWord, v)
			pc++

		case op == ADDRESS:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetBytes(ctx.Self[:])
			pc++

		case op == CALLER:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetBytes(ctx.Caller[:])
			pc++

		case op == CALLVALUE:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			setWei(v, ctx.Value)
			pc++

		case op == BALANCE:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			setWei(v, ctx.Host.Balance(wordAddress(v)))
			pc++

		case op == SELFBALANCE:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			setWei(v, ctx.Host.Balance(ctx.Self))
			pc++

		case op == CALLDATALOAD:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			var word [32]byte
			if off, ok := u64(v); ok {
				for i := uint64(0); i < 32; i++ {
					if off+i < uint64(len(ctx.Input)) {
						word[i] = ctx.Input[off+i]
					}
				}
			}
			v.SetBytes(word[:])
			pc++

		case op == CALLDATASIZE:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(uint64(len(ctx.Input)))
			pc++

		case op == CALLDATACOPY:
			args, err := in.popN(3)
			if err != nil {
				return Result{}, err
			}
			memOff, ok1 := u64(args[0])
			dataOff, ok2 := u64(args[1])
			size, ok3 := u64(args[2])
			if !ok1 || !ok3 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(memOff, size); err != nil {
				return Result{}, err
			}
			for i := uint64(0); i < size; i++ {
				var b byte
				if ok2 && dataOff+i < uint64(len(ctx.Input)) {
					b = ctx.Input[dataOff+i]
				}
				in.mem[memOff+i] = b
			}
			pc++

		case op == CODESIZE:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(uint64(len(code)))
			pc++

		case op == CODECOPY:
			args, err := in.popN(3)
			if err != nil {
				return Result{}, err
			}
			memOff, ok1 := u64(args[0])
			codeOff, ok2 := u64(args[1])
			size, ok3 := u64(args[2])
			if !ok1 || !ok3 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(memOff, size); err != nil {
				return Result{}, err
			}
			for i := uint64(0); i < size; i++ {
				var b byte
				if ok2 && codeOff+i < uint64(len(code)) {
					b = code[codeOff+i]
				}
				in.mem[memOff+i] = b
			}
			pc++

		case op == TIMESTAMP:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetInt64(ctx.Time)
			pc++

		case op == NUMBER:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(ctx.BlockNumber)
			pc++

		case op == RETURNDATASIZE:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(uint64(len(in.retData)))
			pc++

		case op == RETURNDATACOPY:
			args, err := in.popN(3)
			if err != nil {
				return Result{}, err
			}
			memOff, ok1 := u64(args[0])
			dataOff, ok2 := u64(args[1])
			size, ok3 := u64(args[2])
			if !ok1 || !ok2 || !ok3 {
				return Result{}, ErrMemoryLimit
			}
			// Reading beyond the return data is a hard failure in the
			// yellow paper, unlike CALLDATACOPY's zero padding.
			if dataOff+size < dataOff || dataOff+size > uint64(len(in.retData)) {
				return Result{}, fmt.Errorf("%w: returndata out of bounds", ErrMemoryLimit)
			}
			if err := in.expandMem(memOff, size); err != nil {
				return Result{}, err
			}
			copy(in.mem[memOff:memOff+size], in.retData[dataOff:dataOff+size])
			pc++

		case op == POP:
			if _, err := in.pop(); err != nil {
				return Result{}, err
			}
			pc++

		case op == MLOAD:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			off, ok := u64(v)
			if !ok {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(off, 32); err != nil {
				return Result{}, err
			}
			v.SetBytes(in.mem[off : off+32])
			pc++

		case op == MSTORE:
			args, err := in.popN(2)
			if err != nil {
				return Result{}, err
			}
			off, ok := u64(args[0])
			if !ok {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(off, 32); err != nil {
				return Result{}, err
			}
			args[1].FillBytes(in.mem[off : off+32])
			pc++

		case op == SLOAD:
			v, err := in.peek()
			if err != nil {
				return Result{}, err
			}
			var key ethtypes.Hash
			v.FillBytes(key[:])
			val := ctx.Host.StorageGet(ctx.Self, key)
			v.SetBytes(val[:])
			pc++

		case op == SSTORE:
			args, err := in.popN(2)
			if err != nil {
				return Result{}, err
			}
			var key, val ethtypes.Hash
			args[0].FillBytes(key[:])
			args[1].FillBytes(val[:])
			ctx.Host.StorageSet(ctx.Self, key, val)
			pc++

		case op == JUMP:
			v, err := in.pop()
			if err != nil {
				return Result{}, err
			}
			dest, ok := u64(v)
			if !ok || !in.isJumpdest(dest) {
				return Result{}, fmt.Errorf("%w: pc %v", ErrBadJump, v)
			}
			pc = int(dest)

		case op == JUMPI:
			args, err := in.popN(2)
			if err != nil {
				return Result{}, err
			}
			if args[1].Sign() != 0 {
				dest, ok := u64(args[0])
				if !ok || !in.isJumpdest(dest) {
					return Result{}, fmt.Errorf("%w: pc %v", ErrBadJump, args[0])
				}
				pc = int(dest)
			} else {
				pc++
			}

		case op == PC:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(uint64(pc))
			pc++

		case op == GAS:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(in.gas)
			pc++

		case op == JUMPDEST:
			pc++

		case op == PUSH0:
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetUint64(0)
			pc++

		case op >= PUSH1 && op <= PUSH1+31:
			n := int(op-PUSH1) + 1
			end := pc + 1 + n
			if end > len(code) {
				end = len(code)
			}
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.SetBytes(code[pc+1 : end])
			pc += n + 1

		case op >= DUP1 && op <= DUP1+15:
			n := int(op-DUP1) + 1
			if in.sp < n {
				return Result{}, ErrStackUnderflow
			}
			v, err := in.push()
			if err != nil {
				return Result{}, err
			}
			v.Set(&in.stack[in.sp-1-n])
			pc++

		case op >= SWAP1 && op <= SWAP1+15:
			n := int(op-SWAP1) + 1
			if in.sp < n+1 {
				return Result{}, ErrStackUnderflow
			}
			// Swapping the words by value moves each one's digits with it.
			top := in.sp - 1
			in.stack[top], in.stack[top-n] = in.stack[top-n], in.stack[top]
			pc++

		case op >= LOG0 && op <= LOG0+4:
			topicCount := int(op - LOG0)
			args, err := in.popN(2 + topicCount)
			if err != nil {
				return Result{}, err
			}
			off, ok1 := u64(args[0])
			size, ok2 := u64(args[1])
			if !ok1 || !ok2 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(off, size); err != nil {
				return Result{}, err
			}
			topics := make([]ethtypes.Hash, topicCount)
			for i := 0; i < topicCount; i++ {
				args[2+i].FillBytes(topics[i][:])
			}
			data := make([]byte, size)
			copy(data, in.mem[off:off+size])
			ctx.Host.EmitLog(ctx.Self, topics, data)
			pc++

		case op == CALL:
			args, err := in.popN(7)
			if err != nil {
				return Result{}, err
			}
			// args: gas, to, value, inOff, inSize, outOff, outSize
			to := wordAddress(args[1])
			value := ethtypes.WeiFromBig(args[2])
			inOff, ok1 := u64(args[3])
			inSize, ok2 := u64(args[4])
			outOff, ok3 := u64(args[5])
			outSize, ok4 := u64(args[6])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(inOff, inSize); err != nil {
				return Result{}, err
			}
			input := make([]byte, inSize)
			copy(input, in.mem[inOff:inOff+inSize])
			ret, callErr := ctx.Host.Call(ctx.Self, to, value, input, ctx.Depth+1)
			if err := in.finishCall(ret, callErr, outOff, outSize); err != nil {
				return Result{}, err
			}
			pc++

		case op == DELEGATECALL:
			args, err := in.popN(6)
			if err != nil {
				return Result{}, err
			}
			// args: gas, to, inOff, inSize, outOff, outSize. The callee's
			// code runs in this frame's context: same Self, Caller, and
			// Value, so its SLOADs and SSTOREs hit our storage.
			to := wordAddress(args[1])
			inOff, ok1 := u64(args[2])
			inSize, ok2 := u64(args[3])
			outOff, ok3 := u64(args[4])
			outSize, ok4 := u64(args[5])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(inOff, inSize); err != nil {
				return Result{}, err
			}
			input := make([]byte, inSize)
			copy(input, in.mem[inOff:inOff+inSize])
			var ret []byte
			var callErr error
			if ch, ok := ctx.Host.(CodeHost); ok {
				if callee := ch.CodeOf(to); len(callee) > 0 {
					res, runErr := Run(&Context{
						Code:        callee,
						Self:        ctx.Self,
						Caller:      ctx.Caller,
						Value:       ctx.Value,
						Input:       input,
						Gas:         in.gas,
						Depth:       ctx.Depth + 1,
						Host:        ctx.Host,
						Time:        ctx.Time,
						BlockNumber: ctx.BlockNumber,
					})
					if chErr := in.charge(res.GasUsed); chErr != nil {
						return Result{GasUsed: ctx.Gas}, chErr
					}
					ret, callErr = res.ReturnData, runErr
				}
			}
			// A code-less target (EOA, or a Host without CodeHost)
			// succeeds with empty return data, like mainnet.
			if err := in.finishCall(ret, callErr, outOff, outSize); err != nil {
				return Result{}, err
			}
			pc++

		case op == STATICCALL:
			args, err := in.popN(6)
			if err != nil {
				return Result{}, err
			}
			// args: gas, to, inOff, inSize, outOff, outSize. Routed through
			// the host as a zero-value call; this interpreter does not
			// enforce the read-only restriction (no contract in the
			// simulated world writes state behind a STATICCALL).
			to := wordAddress(args[1])
			inOff, ok1 := u64(args[2])
			inSize, ok2 := u64(args[3])
			outOff, ok3 := u64(args[4])
			outSize, ok4 := u64(args[5])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(inOff, inSize); err != nil {
				return Result{}, err
			}
			input := make([]byte, inSize)
			copy(input, in.mem[inOff:inOff+inSize])
			ret, callErr := ctx.Host.Call(ctx.Self, to, ethtypes.Wei{}, input, ctx.Depth+1)
			if err := in.finishCall(ret, callErr, outOff, outSize); err != nil {
				return Result{}, err
			}
			pc++

		case op == RETURN, op == REVERT:
			args, err := in.popN(2)
			if err != nil {
				return Result{}, err
			}
			off, ok1 := u64(args[0])
			size, ok2 := u64(args[1])
			if !ok1 || !ok2 {
				return Result{}, ErrMemoryLimit
			}
			if err := in.expandMem(off, size); err != nil {
				return Result{}, err
			}
			// Memory is reused by the next frame, so the result is a copy.
			ret := make([]byte, size)
			copy(ret, in.mem[off:off+size])
			res := Result{ReturnData: ret, GasUsed: ctx.Gas - in.gas}
			if op == REVERT {
				res.Reverted = true
				return res, ErrRevert
			}
			return res, nil

		default:
			return Result{}, fmt.Errorf("%w: 0x%02x at pc %d", ErrInvalidOpcode, op, pc)
		}
	}
	// Running off the end of code is an implicit STOP.
	return Result{GasUsed: ctx.Gas - in.gas}, nil
}

// finishCall completes a CALL-family opcode: it keeps the callee's
// return data, copies up to outSize bytes of it to memory at outOff on
// success, and pushes the success flag.
func (in *interp) finishCall(ret []byte, callErr error, outOff, outSize uint64) error {
	if callErr == nil {
		in.retData = ret
	} else {
		in.retData = nil
	}
	if callErr == nil && outSize > 0 {
		if err := in.expandMem(outOff, outSize); err != nil {
			return err
		}
		n := uint64(len(ret))
		if n > outSize {
			n = outSize
		}
		copy(in.mem[outOff:outOff+n], ret[:n])
	}
	v, err := in.push()
	if err != nil {
		return err
	}
	setBool(v, callErr == nil)
	return nil
}

// binop applies a two-operand opcode: a is the popped top word and b
// the word beneath it, which receives the result in place.
func binop(op byte, a, b *big.Int) error {
	switch op {
	case ADD:
		mod256(b.Add(a, b))
	case MUL:
		mod256(b.Mul(a, b))
	case SUB:
		mod256(b.Sub(a, b))
	case DIV:
		if b.Sign() == 0 {
			return nil
		}
		b.Div(a, b)
	case MOD:
		if b.Sign() == 0 {
			return nil
		}
		b.Mod(a, b)
	case AND:
		b.And(a, b)
	case OR:
		b.Or(a, b)
	case XOR:
		b.Xor(a, b)
	case LT:
		setBool(b, a.Cmp(b) < 0)
	case GT:
		setBool(b, a.Cmp(b) > 0)
	case EQ:
		setBool(b, a.Cmp(b) == 0)
	case SHL:
		n, ok := u64(a)
		if !ok || n > 255 {
			b.SetUint64(0)
			return nil
		}
		mod256(b.Lsh(b, uint(n)))
	case SHR:
		n, ok := u64(a)
		if !ok || n > 255 {
			b.SetUint64(0)
			return nil
		}
		b.Rsh(b, uint(n))
	case EXP:
		b.Exp(a, b, two256)
	default:
		return fmt.Errorf("%w: 0x%02x", ErrInvalidOpcode, op)
	}
	return nil
}

// opCost assigns flat costs: expensive state ops cost more so gas limits
// still bound work realistically.
func opCost(op byte) uint64 {
	switch op {
	case SLOAD:
		return 100
	case SSTORE:
		return 5000
	case CALL, DELEGATECALL, STATICCALL:
		return 700
	case BALANCE, SELFBALANCE:
		return 100
	default:
		if op >= LOG0 && op <= LOG0+4 {
			return 375
		}
		return 3
	}
}
