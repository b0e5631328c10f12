// Package chain implements the simulated Ethereum ledger the measurement
// pipeline runs against: blocks, transactions, receipts, account state
// with transactional rollback, an execution engine that dispatches to
// either EVM bytecode (internal/evm) or registered native contracts, and
// per-transaction fund-flow traces equivalent to the trace_transaction
// output the paper's collector consumed.
package chain

import (
	"time"

	"repro/internal/ethtypes"
	"repro/internal/keccak"
	"repro/internal/rlp"
)

// AssetKind distinguishes the three token classes of the paper's Fig. 3.
type AssetKind int

// Asset kinds.
const (
	AssetETH AssetKind = iota
	AssetERC20
	AssetERC721
)

func (k AssetKind) String() string {
	switch k {
	case AssetETH:
		return "ETH"
	case AssetERC20:
		return "ERC20"
	case AssetERC721:
		return "ERC721"
	default:
		return "unknown"
	}
}

// Asset identifies what moved in a transfer: the native token, an ERC-20
// (Token set), or a specific NFT (Token and TokenID set).
type Asset struct {
	Kind    AssetKind
	Token   ethtypes.Address // zero for ETH
	TokenID uint64           // ERC-721 only
}

// ETHAsset is the native-token asset.
var ETHAsset = Asset{Kind: AssetETH}

// Transfer is one edge of a transaction's fund flow.
type Transfer struct {
	Asset  Asset
	From   ethtypes.Address
	To     ethtypes.Address
	Amount ethtypes.Wei // token units; 1 for ERC-721
	Depth  int          // call depth at which the transfer happened (0 = top level)
}

// Approval records an ERC-20/721 allowance grant observed in a
// transaction — the pipeline's §6.1 unrevoked-approval analysis needs
// these.
type Approval struct {
	Token   ethtypes.Address
	Kind    AssetKind
	Owner   ethtypes.Address
	Spender ethtypes.Address
	Amount  ethtypes.Wei // 0 amount on ERC-20 means revocation
	All     bool         // ERC-721 setApprovalForAll
}

// Log is an emitted event.
type Log struct {
	Address ethtypes.Address
	Topics  []ethtypes.Hash
	Data    []byte
}

// Transaction is a simplified Ethereum transaction. Signatures are
// omitted; From is authoritative, as in node trace APIs.
type Transaction struct {
	Nonce    uint64
	From     ethtypes.Address
	To       *ethtypes.Address // nil = contract creation
	Value    ethtypes.Wei
	Data     []byte
	GasLimit uint64

	hash ethtypes.Hash // memoized
}

// Hash returns the transaction identity: keccak256 of the RLP encoding
// of the transaction fields. The result is memoized, so a struct copy
// whose fields were altered afterwards keeps reporting the original
// identity — integrity checks must use RecomputeHash.
func (tx *Transaction) Hash() ethtypes.Hash {
	if !tx.hash.IsZero() {
		return tx.hash
	}
	tx.hash = tx.RecomputeHash()
	return tx.hash
}

// RecomputeHash derives the transaction identity from the current field
// values, bypassing (and never touching) the memoized hash. Validation
// layers use it to detect records whose fields were mutated in flight:
// such a record still carries the stale memo, so Hash() alone cannot
// see the tampering.
//
// The RLP list is hashed in parts, so Data is never copied: the list
// header, the fields up to Data's length prefix, Data, and GasLimit.
func (tx *Transaction) RecomputeHash() ethtypes.Hash {
	var headBuf [128]byte
	var to []byte
	if tx.To != nil {
		to = tx.To[:]
	}
	head := rlp.AppendUint(headBuf[:0], tx.Nonce)
	head = rlp.AppendString(head, tx.From[:])
	head = rlp.AppendString(head, to)
	var value [32]byte
	head = rlp.AppendString(head, tx.Value.AppendBytes(value[:0]))
	head = rlp.AppendStringHeader(head, tx.Data)
	var tailBuf, listBuf [9]byte
	tail := rlp.AppendUint(tailBuf[:0], tx.GasLimit)
	list := rlp.AppendList(listBuf[:0], len(head)+len(tx.Data)+len(tail))
	return ethtypes.Hash(keccak.Sum256(list, head, tx.Data, tail))
}

// Receipt is the recorded outcome of an executed transaction, including
// the full fund flow the classifier consumes.
type Receipt struct {
	TxHash          ethtypes.Hash
	BlockNumber     uint64
	Timestamp       time.Time
	Status          bool // true = success
	GasUsed         uint64
	ContractAddress ethtypes.Address // set for creations
	Transfers       []Transfer
	Approvals       []Approval
	Logs            []Log
	Err             string // failure reason, empty on success
}

// Block groups executed transactions under one timestamp.
type Block struct {
	Number    uint64
	Timestamp time.Time
	TxHashes  []ethtypes.Hash
	Parent    ethtypes.Hash
	hash      ethtypes.Hash
}

// Hash returns the block identity: keccak256 of the RLP list of
// number, timestamp, parent hash and transaction hashes, encoded into
// one exact-size buffer.
func (b *Block) Hash() ethtypes.Hash {
	if !b.hash.IsZero() {
		return b.hash
	}
	var headBuf [64]byte
	head := rlp.AppendUint(headBuf[:0], b.Number)
	head = rlp.AppendUint(head, uint64(b.Timestamp.Unix()))
	head = rlp.AppendString(head, b.Parent[:])
	n := len(head) + len(b.TxHashes)*(1+ethtypes.HashLength)
	var listBuf [9]byte
	list := rlp.AppendList(listBuf[:0], n)
	enc := make([]byte, 0, len(list)+n)
	enc = append(append(enc, list...), head...)
	for _, h := range b.TxHashes {
		enc = rlp.AppendString(enc, h[:])
	}
	b.hash = ethtypes.Hash(keccak.Sum256(enc))
	return b.hash
}

// CreateAddress derives the address of a contract created by sender with
// the given account nonce, per Ethereum's CREATE rule.
func CreateAddress(sender ethtypes.Address, nonce uint64) ethtypes.Address {
	var payloadBuf [32]byte
	payload := rlp.AppendUint(rlp.AppendString(payloadBuf[:0], sender[:]), nonce)
	var listBuf [9]byte
	sum := keccak.Sum256(rlp.AppendList(listBuf[:0], len(payload)), payload)
	return ethtypes.BytesToAddress(sum[12:])
}
