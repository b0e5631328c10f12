package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/evm"
)

// Execution errors.
var (
	errInsufficientFunds = errors.New("chain: insufficient funds")
	errNegativeValue     = errors.New("chain: negative value")
	// ErrUnknownTx is returned for lookups of transactions the chain has
	// never executed.
	ErrUnknownTx = errors.New("chain: unknown transaction")
	// ErrUnknownBlock is returned for out-of-range block numbers.
	ErrUnknownBlock = errors.New("chain: unknown block")
)

// DefaultGasLimit bounds transactions that do not set their own limit.
const DefaultGasLimit = 10_000_000

// NativeContract is a contract implemented in Go rather than EVM
// bytecode (our analogue of precompiles). Token standards and
// marketplaces are natives; profit-sharing contracts are EVM bytecode.
type NativeContract interface {
	Run(env *CallEnv) ([]byte, error)
}

// CallEnv gives a native contract controlled access to the executing
// transaction: its own storage, nested calls, logs, and the fund-flow
// trace.
type CallEnv struct {
	Caller ethtypes.Address
	Self   ethtypes.Address
	Value  ethtypes.Wei
	Input  []byte
	Depth  int

	ex *executor
}

// StorageGet reads a word of the contract's own storage.
func (e *CallEnv) StorageGet(key ethtypes.Hash) ethtypes.Hash {
	return e.ex.cur.storageGet(e.Self, key)
}

// StorageSet writes a word of the contract's own storage.
func (e *CallEnv) StorageSet(key, val ethtypes.Hash) {
	e.ex.cur.storageSet(e.Self, key, val)
}

// Balance reads any account balance.
func (e *CallEnv) Balance(a ethtypes.Address) ethtypes.Wei { return e.ex.cur.balance(a) }

// Call performs a nested message call from this contract.
func (e *CallEnv) Call(to ethtypes.Address, value ethtypes.Wei, input []byte) ([]byte, error) {
	return e.ex.call(e.Self, to, value, input, e.Depth+1)
}

// EmitLog records an event log.
func (e *CallEnv) EmitLog(topics []ethtypes.Hash, data []byte) {
	e.ex.receipt.Logs = append(e.ex.receipt.Logs, Log{Address: e.Self, Topics: topics, Data: data})
}

// RecordTokenTransfer adds a token movement to the transaction's fund
// flow (the ERC-20/721 analogue of an ETH value transfer).
func (e *CallEnv) RecordTokenTransfer(asset Asset, from, to ethtypes.Address, amount ethtypes.Wei) {
	e.ex.receipt.Transfers = append(e.ex.receipt.Transfers, Transfer{
		Asset: asset, From: from, To: to, Amount: amount, Depth: e.Depth,
	})
}

// RecordApproval adds an allowance grant to the receipt.
func (e *CallEnv) RecordApproval(a Approval) {
	e.ex.receipt.Approvals = append(e.ex.receipt.Approvals, a)
}

// Chain is the simulated ledger. The zero value is not usable; call New.
type Chain struct {
	mu       sync.RWMutex
	blocks   []*Block
	txs      map[ethtypes.Hash]*Transaction
	receipts map[ethtypes.Hash]*Receipt
	canon    *state
	natives  map[ethtypes.Address]NativeContract
	txIndex  map[ethtypes.Address][]ethtypes.Hash
	// journal records every state-building operation in order, so a
	// Follower can re-execute the chain block-by-block (see follower.go).
	journal []journalOp
}

// New returns an empty chain with a genesis block at the given time.
func New(genesisTime time.Time) *Chain {
	c := &Chain{
		txs:      make(map[ethtypes.Hash]*Transaction),
		receipts: make(map[ethtypes.Hash]*Receipt),
		canon:    newState(nil),
		natives:  make(map[ethtypes.Address]NativeContract),
		txIndex:  make(map[ethtypes.Address][]ethtypes.Hash),
	}
	genesis := &Block{Number: 0, Timestamp: genesisTime}
	genesis.Hash() // memoize before the block is shared
	c.blocks = append(c.blocks, genesis)
	return c
}

// Fund credits an account out of thin air (genesis-style allocation used
// to endow victims and operators).
func (c *Chain) Fund(a ethtypes.Address, amount ethtypes.Wei) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = append(c.journal, journalOp{kind: opFund, addr: a, amount: amount})
	c.canon.setBalance(a, c.canon.balance(a).Add(amount))
}

// RegisterNative installs a Go-implemented contract at addr.
func (c *Chain) RegisterNative(addr ethtypes.Address, contract NativeContract) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = append(c.journal, journalOp{kind: opNative, addr: addr, native: contract})
	c.natives[addr] = contract
}

// Mine executes txs in order under one block stamped ts and returns the
// block and per-transaction receipts. Failed transactions produce
// Status=false receipts and roll back completely; Mine never fails as a
// whole.
func (c *Chain) Mine(ts time.Time, txs ...*Transaction) (*Block, []*Receipt) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.journal = append(c.journal, journalOp{kind: opMine, ts: ts, txs: txs})
	parent := c.blocks[len(c.blocks)-1]
	block := &Block{Number: parent.Number + 1, Timestamp: ts, Parent: parent.Hash()}
	receipts := make([]*Receipt, 0, len(txs))
	for _, tx := range txs {
		r := c.apply(tx, block)
		receipts = append(receipts, r)
		block.TxHashes = append(block.TxHashes, r.TxHash)
	}
	block.Hash() // memoize under the write lock so readers never mutate
	c.blocks = append(c.blocks, block)
	return block, receipts
}

// apply executes one transaction against the canonical state.
// The caller holds the write lock.
func (c *Chain) apply(tx *Transaction, block *Block) *Receipt {
	// Assign the sender's current nonce so callers need not track it.
	tx.Nonce = c.canon.nonce(tx.From)
	tx.hash = ethtypes.Hash{} // force re-hash with final nonce
	if tx.GasLimit == 0 {
		tx.GasLimit = DefaultGasLimit
	}

	receipt := &Receipt{
		TxHash:      tx.Hash(),
		BlockNumber: block.Number,
		Timestamp:   block.Timestamp,
	}
	overlay := newState(c.canon)
	overlay.setNonce(tx.From, tx.Nonce+1)

	ex := &executor{chain: c, cur: overlay, receipt: receipt, gasLimit: tx.GasLimit}

	var err error
	if tx.To == nil {
		receipt.ContractAddress, err = ex.create(tx.From, tx.Value, tx.Data)
	} else {
		_, err = ex.call(tx.From, *tx.To, tx.Value, tx.Data, 0)
	}
	receipt.GasUsed = ex.gasUsed
	if err != nil {
		receipt.Status = false
		receipt.Err = err.Error()
		receipt.Transfers = nil
		receipt.Approvals = nil
		receipt.Logs = nil
		// A failed transaction still consumes the sender's nonce.
		c.canon.setNonce(tx.From, tx.Nonce+1)
	} else {
		receipt.Status = true
		ex.cur.commit() // ex.cur is the tx overlay again after balanced frames
	}

	c.txs[tx.Hash()] = tx
	c.receipts[tx.Hash()] = receipt
	c.index(tx, receipt)
	return receipt
}

// index records which accounts a transaction touched.
func (c *Chain) index(tx *Transaction, r *Receipt) {
	for _, a := range TouchedAccounts(tx, r) {
		c.txIndex[a] = append(c.txIndex[a], r.TxHash)
	}
}

// TouchedAccounts lists the accounts in whose history a transaction
// appears: sender, recipient, created contract, and every transfer and
// approval party, in that order, without zero or repeated addresses.
func TouchedAccounts(tx *Transaction, r *Receipt) []ethtypes.Address {
	seen := make(map[ethtypes.Address]bool, 8)
	var out []ethtypes.Address
	add := func(a ethtypes.Address) {
		if a.IsZero() || seen[a] {
			return
		}
		seen[a] = true
		out = append(out, a)
	}
	add(tx.From)
	if tx.To != nil {
		add(*tx.To)
	}
	add(r.ContractAddress)
	for _, t := range r.Transfers {
		add(t.From)
		add(t.To)
	}
	for _, a := range r.Approvals {
		add(a.Owner)
		add(a.Spender)
	}
	return out
}

// executor runs one transaction. cur always points at the innermost
// live overlay; frames push a child on entry and either commit+pop or
// discard+pop on exit.
type executor struct {
	chain    *Chain
	cur      *state
	receipt  *Receipt
	gasLimit uint64
	gasUsed  uint64
}

// call performs a message call: value transfer plus execution of the
// callee (native contract, EVM bytecode, or plain EOA).
func (ex *executor) call(from, to ethtypes.Address, value ethtypes.Wei, input []byte, depth int) ([]byte, error) {
	if depth > evm.CallDepthLimit {
		return nil, evm.ErrCallDepth
	}
	frame := newState(ex.cur)
	ex.cur = frame
	markTransfers := len(ex.receipt.Transfers)
	markApprovals := len(ex.receipt.Approvals)
	markLogs := len(ex.receipt.Logs)

	fail := func(err error) ([]byte, error) {
		ex.cur = frame.parent
		ex.receipt.Transfers = ex.receipt.Transfers[:markTransfers]
		ex.receipt.Approvals = ex.receipt.Approvals[:markApprovals]
		ex.receipt.Logs = ex.receipt.Logs[:markLogs]
		return nil, err
	}

	if err := frame.transfer(from, to, value); err != nil {
		return fail(err)
	}
	if value.Sign() > 0 {
		ex.receipt.Transfers = append(ex.receipt.Transfers, Transfer{
			Asset: ETHAsset, From: from, To: to, Amount: value, Depth: depth,
		})
	}

	var ret []byte
	var err error
	if native, ok := ex.chain.natives[to]; ok {
		env := &CallEnv{Caller: from, Self: to, Value: value, Input: input, Depth: depth, ex: ex}
		ret, err = native.Run(env)
	} else if code := frame.codeAt(to); len(code) > 0 {
		res, runErr := evm.Run(&evm.Context{
			Code:        code,
			Self:        to,
			Caller:      from,
			Value:       value,
			Input:       input,
			Gas:         ex.remainingGas(),
			Depth:       depth,
			Host:        ex,
			Time:        ex.receipt.Timestamp.Unix(),
			BlockNumber: ex.receipt.BlockNumber,
		})
		ex.gasUsed += res.GasUsed
		ret, err = res.ReturnData, runErr
	}
	if err != nil {
		return fail(err)
	}
	frame.commit()
	ex.cur = frame.parent
	return ret, nil
}

// create deploys a contract: runs initcode, installs the returned
// runtime code at the derived address.
func (ex *executor) create(from ethtypes.Address, value ethtypes.Wei, initcode []byte) (ethtypes.Address, error) {
	// Nonce was already incremented for this tx; CREATE uses the
	// pre-increment value.
	nonce := ex.cur.nonce(from) - 1
	addr := CreateAddress(from, nonce)

	frame := newState(ex.cur)
	ex.cur = frame
	fail := func(err error) (ethtypes.Address, error) {
		ex.cur = frame.parent
		return ethtypes.Address{}, err
	}
	if err := frame.transfer(from, addr, value); err != nil {
		return fail(err)
	}
	res, err := evm.Run(&evm.Context{
		Code:        initcode,
		Self:        addr,
		Caller:      from,
		Value:       value,
		Gas:         ex.remainingGas(),
		Host:        ex,
		Time:        ex.receipt.Timestamp.Unix(),
		BlockNumber: ex.receipt.BlockNumber,
	})
	ex.gasUsed += res.GasUsed
	if err != nil {
		return fail(fmt.Errorf("chain: constructor failed: %w", err))
	}
	frame.setCode(addr, res.ReturnData)
	frame.commit()
	ex.cur = frame.parent
	return addr, nil
}

func (ex *executor) remainingGas() uint64 {
	if ex.gasUsed >= ex.gasLimit {
		return 0
	}
	return ex.gasLimit - ex.gasUsed
}

// evm.Host implementation.

// Balance implements evm.Host.
func (ex *executor) Balance(a ethtypes.Address) ethtypes.Wei { return ex.cur.balance(a) }

// StorageGet implements evm.Host.
func (ex *executor) StorageGet(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	return ex.cur.storageGet(a, k)
}

// StorageSet implements evm.Host.
func (ex *executor) StorageSet(a ethtypes.Address, k, v ethtypes.Hash) {
	ex.cur.storageSet(a, k, v)
}

// Call implements evm.Host.
func (ex *executor) Call(from, to ethtypes.Address, value ethtypes.Wei, input []byte, depth int) ([]byte, error) {
	return ex.call(from, to, value, input, depth)
}

// EmitLog implements evm.Host.
func (ex *executor) EmitLog(a ethtypes.Address, topics []ethtypes.Hash, data []byte) {
	ex.receipt.Logs = append(ex.receipt.Logs, Log{Address: a, Topics: topics, Data: data})
}

// CodeOf implements evm.CodeHost, letting DELEGATECALL (proxy patterns
// such as EIP-1167 clones) run the implementation's bytecode inside the
// proxy's storage context.
func (ex *executor) CodeOf(a ethtypes.Address) []byte { return ex.cur.codeAt(a) }

// Simulate executes a transaction against the canonical state without
// committing anything — the simulator's equivalent of the pre-signing
// transaction simulation APIs wallets use (paper §9). The returned
// receipt carries the full would-be fund flow and approvals.
func (c *Chain) Simulate(tx *Transaction) *Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	receipt := &Receipt{
		// RecomputeHash, not Hash: callers may simulate one transaction
		// from several goroutines, and Hash memoizes into the struct.
		TxHash:      tx.RecomputeHash(),
		BlockNumber: uint64(len(c.blocks)), // the pending block
		Timestamp:   c.blocks[len(c.blocks)-1].Timestamp,
	}
	gasLimit := tx.GasLimit
	if gasLimit == 0 {
		gasLimit = DefaultGasLimit
	}
	overlay := newState(c.canon)
	// Mirror apply's nonce handling so CREATE derives the same address
	// the real execution would.
	overlay.setNonce(tx.From, c.canon.nonce(tx.From)+1)
	ex := &executor{chain: c, cur: overlay, receipt: receipt, gasLimit: gasLimit}
	var err error
	if tx.To == nil {
		receipt.ContractAddress, err = ex.create(tx.From, tx.Value, tx.Data)
	} else {
		_, err = ex.call(tx.From, *tx.To, tx.Value, tx.Data, 0)
	}
	receipt.GasUsed = ex.gasUsed
	receipt.Status = err == nil
	if err != nil {
		receipt.Err = err.Error()
	}
	return receipt
}

// StaticCall executes a read-only message call against the canonical
// state and returns the call's return data, discarding every state
// write — the simulator's eth_call. The zero address is the caller.
func (c *Chain) StaticCall(to ethtypes.Address, input []byte) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	receipt := &Receipt{}
	ex := &executor{chain: c, cur: newState(c.canon), receipt: receipt, gasLimit: DefaultGasLimit}
	return ex.call(ethtypes.ZeroAddress, to, ethtypes.Wei{}, input, 0)
}

// Read API (thread-safe).

// BalanceOf returns the canonical balance of a.
func (c *Chain) BalanceOf(a ethtypes.Address) ethtypes.Wei {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.canon.balance(a)
}

// StorageAt returns a storage word of a contract in canonical state.
func (c *Chain) StorageAt(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.canon.storageGet(a, k)
}

// CodeAt returns deployed EVM bytecode, or nil for EOAs and natives.
func (c *Chain) CodeAt(a ethtypes.Address) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.canon.codeAt(a)
}

// IsContract reports whether a hosts code (EVM or native).
func (c *Chain) IsContract(a ethtypes.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.natives[a]; ok {
		return true
	}
	return len(c.canon.codeAt(a)) > 0
}

// Transaction returns a transaction by hash.
func (c *Chain) Transaction(h ethtypes.Hash) (*Transaction, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tx, ok := c.txs[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTx, h)
	}
	return tx, nil
}

// Receipt returns a receipt by transaction hash.
func (c *Chain) Receipt(h ethtypes.Hash) (*Receipt, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.receipts[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTx, h)
	}
	return r, nil
}

// BlockCount returns the number of blocks including genesis.
func (c *Chain) BlockCount() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(len(c.blocks))
}

// BlockByNumber returns block n.
func (c *Chain) BlockByNumber(n uint64) (*Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, n)
	}
	return c.blocks[n], nil
}

// TransactionsOf returns, in chronological order, the hashes of every
// transaction that touched addr (as sender, recipient, transfer party,
// or approval party) — the "historical transactions of an account" feed
// the snowball sampler iterates over.
func (c *Chain) TransactionsOf(addr ethtypes.Address) []ethtypes.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	src := c.txIndex[addr]
	out := make([]ethtypes.Hash, len(src))
	copy(out, src)
	return out
}

// AccountsWithHistory returns every address that appears in the index,
// sorted for determinism. Used by tooling and tests.
func (c *Chain) AccountsWithHistory() []ethtypes.Address {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ethtypes.Address, 0, len(c.txIndex))
	for a := range c.txIndex {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// TxCount returns the number of executed transactions.
func (c *Chain) TxCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.txs)
}
