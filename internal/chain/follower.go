package chain

import (
	"time"

	"repro/internal/ethtypes"
)

// journalKind discriminates journal operations.
type journalKind uint8

const (
	opFund journalKind = iota
	opNative
	opMine
)

// journalOp is one recorded state-building operation. Mine entries keep
// the caller's transaction pointers; replay always clones them, because
// apply assigns nonces and memoizes hashes in place.
type journalOp struct {
	kind   journalKind
	addr   ethtypes.Address
	amount ethtypes.Wei
	native NativeContract
	ts     time.Time
	txs    []*Transaction
}

// journalChunk is the capacity of each journal chunk.
const journalChunk = 1024

// record appends op to the journal. The caller holds the write lock.
func (c *Chain) record(op journalOp) {
	n := len(c.journal)
	if n == 0 || len(c.journal[n-1]) == journalChunk {
		c.journal = append(c.journal, make([]journalOp, 0, journalChunk))
		n++
	}
	c.journal[n-1] = append(c.journal[n-1], op)
}

// journalAt returns journal entry i, or false past the end.
func (c *Chain) journalAt(i int) (journalOp, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	chunk, j := i/journalChunk, i%journalChunk
	if chunk >= len(c.journal) || j >= len(c.journal[chunk]) {
		return journalOp{}, false
	}
	return c.journal[chunk][j], true
}

func (c *Chain) genesisTime() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[0].Timestamp
}

// cloneTx copies a transaction for re-execution on another chain.
// Nonce and the memoized hash are assigned by apply; Data is never
// mutated, so sharing the slice is safe.
func cloneTx(tx *Transaction) *Transaction {
	cp := *tx
	cp.hash = ethtypes.Hash{}
	return &cp
}

func cloneTxs(txs []*Transaction) []*Transaction {
	out := make([]*Transaction, len(txs))
	for i, tx := range txs {
		out[i] = cloneTx(tx)
	}
	return out
}

// Follower re-executes a source chain's journal onto a destination
// chain one block at a time — the head-advance driver behind
// `chainsim -grow` and the radar soak tests. Because execution is
// deterministic (block hashes cover number, timestamp, parent, and tx
// hashes), the destination's blocks are byte-identical to the
// source's prefix, so a radar following the destination sees exactly
// the history the one-shot pipeline sees, just later.
//
// MineOrphan appends a block that is not part of the source journal,
// and Heal rebuilds the destination back onto the canonical prefix —
// together they stage a reorg: the healed chain re-mines the fork
// block with a different hash, which a head follower must detect via
// its parent-hash ring and roll back.
type Follower struct {
	src *Chain
	dst *Chain
	pos int // journal entries consumed
}

// NewFollower returns a follower whose destination chain starts at the
// source's genesis block.
func NewFollower(src *Chain) *Follower {
	return &Follower{src: src, dst: New(src.genesisTime())}
}

// Chain returns the destination chain the follower mines into.
func (f *Follower) Chain() *Chain { return f.dst }

// Advance consumes journal operations up to and including the next
// block, mining it on the destination. It returns the mined block, or
// false when the source journal is exhausted (any trailing non-mine
// operations are still applied).
func (f *Follower) Advance() (*Block, bool) {
	for {
		op, ok := f.src.journalAt(f.pos)
		if !ok {
			return nil, false
		}
		f.pos++
		switch op.kind {
		case opFund:
			f.dst.Fund(op.addr, op.amount)
		case opNative:
			f.dst.RegisterNative(op.addr, op.native)
		case opMine:
			blk, _ := f.dst.Mine(op.ts, cloneTxs(op.txs)...)
			return blk, true
		}
	}
}

// MineOrphan mines a block on the destination that is not part of the
// source journal — the soon-to-be-orphaned side of a staged reorg.
// The given transactions are cloned before execution.
func (f *Follower) MineOrphan(ts time.Time, txs ...*Transaction) *Block {
	blk, _ := f.dst.Mine(ts, cloneTxs(txs)...)
	return blk
}

// Heal rebuilds the destination onto the canonical source prefix,
// discarding every orphaned block: a fresh chain re-executes the
// consumed journal prefix and its guts are swapped into the
// destination in place, so existing references (RPC servers, radar
// adapters) observe the reorg through the same *Chain.
func (f *Follower) Heal() {
	fresh := New(f.src.genesisTime())
	for i := 0; i < f.pos; i++ {
		op, ok := f.src.journalAt(i)
		if !ok {
			break
		}
		switch op.kind {
		case opFund:
			fresh.Fund(op.addr, op.amount)
		case opNative:
			fresh.RegisterNative(op.addr, op.native)
		case opMine:
			fresh.Mine(op.ts, cloneTxs(op.txs)...)
		}
	}
	f.dst.adopt(fresh)
}

// adopt replaces the chain's contents with other's. The caller must no
// longer use other directly.
func (c *Chain) adopt(other *Chain) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks = other.blocks
	c.executed = other.executed
	c.canon = other.canon
	c.natives = other.natives
	c.txIndex = other.txIndex
	c.journal = other.journal
}
