package chain

import (
	"repro/internal/ethtypes"
)

// state holds account balances, nonces, code, and storage, and an undo
// journal of every write since the current transaction began. Message
// calls write straight through; each call frame records the journal
// length on entry (mark) and a failed frame undoes back to it (revert),
// so a failed callee rolls back without disturbing its caller, and a
// failed transaction leaves no trace. Mine runs transactions directly
// on the canonical state and empties the journal after each one.
//
// An overlay (base non-nil) reads through to its base and keeps its own
// writes: Simulate and StaticCall run in one over the canonical state,
// because they hold only the read lock and must not write it.
type state struct {
	base     *state
	balances map[ethtypes.Address]ethtypes.Wei
	nonces   map[ethtypes.Address]uint64
	code     map[ethtypes.Address][]byte
	storage  map[storageKey]ethtypes.Hash
	journal  []undo
}

type storageKey struct {
	addr ethtypes.Address
	key  ethtypes.Hash
}

type undoKind uint8

const (
	undoBalance undoKind = iota
	undoNonce
	undoCode
	undoStorage
)

// undo is one journal entry: the value a write replaced, or had=false
// when the write created the map entry.
type undo struct {
	kind    undoKind
	had     bool
	addr    ethtypes.Address
	key     ethtypes.Hash
	word    ethtypes.Hash
	balance ethtypes.Wei
	nonce   uint64
	code    []byte
}

func newState() *state {
	return &state{
		balances: make(map[ethtypes.Address]ethtypes.Wei),
		nonces:   make(map[ethtypes.Address]uint64),
		code:     make(map[ethtypes.Address][]byte),
		storage:  make(map[storageKey]ethtypes.Hash),
	}
}

// newOverlay returns an empty state whose reads fall through to base.
func newOverlay(base *state) *state {
	s := newState()
	s.base = base
	return s
}

func (s *state) balance(a ethtypes.Address) ethtypes.Wei {
	v, ok := s.balances[a]
	if !ok && s.base != nil {
		return s.base.balances[a]
	}
	return v
}

func (s *state) setBalance(a ethtypes.Address, v ethtypes.Wei) {
	prev, had := s.balances[a]
	s.journal = append(s.journal, undo{kind: undoBalance, had: had, addr: a, balance: prev})
	s.balances[a] = v
}

func (s *state) nonce(a ethtypes.Address) uint64 {
	v, ok := s.nonces[a]
	if !ok && s.base != nil {
		return s.base.nonces[a]
	}
	return v
}

func (s *state) setNonce(a ethtypes.Address, n uint64) {
	prev, had := s.nonces[a]
	s.journal = append(s.journal, undo{kind: undoNonce, had: had, addr: a, nonce: prev})
	s.nonces[a] = n
}

func (s *state) codeAt(a ethtypes.Address) []byte {
	c, ok := s.code[a]
	if !ok && s.base != nil {
		return s.base.code[a]
	}
	return c
}

func (s *state) setCode(a ethtypes.Address, c []byte) {
	prev, had := s.code[a]
	s.journal = append(s.journal, undo{kind: undoCode, had: had, addr: a, code: prev})
	s.code[a] = c
}

func (s *state) storageGet(a ethtypes.Address, k ethtypes.Hash) ethtypes.Hash {
	sk := storageKey{a, k}
	v, ok := s.storage[sk]
	if !ok && s.base != nil {
		return s.base.storage[sk]
	}
	return v
}

func (s *state) storageSet(a ethtypes.Address, k, v ethtypes.Hash) {
	sk := storageKey{a, k}
	prev, had := s.storage[sk]
	s.journal = append(s.journal, undo{kind: undoStorage, had: had, addr: a, key: k, word: prev})
	s.storage[sk] = v
}

// mark returns the journal position a frame can later revert to.
func (s *state) mark() int { return len(s.journal) }

// revert undoes every write made since mark, newest first.
func (s *state) revert(mark int) {
	for i := len(s.journal) - 1; i >= mark; i-- {
		u := &s.journal[i]
		switch u.kind {
		case undoBalance:
			if u.had {
				s.balances[u.addr] = u.balance
			} else {
				delete(s.balances, u.addr)
			}
		case undoNonce:
			if u.had {
				s.nonces[u.addr] = u.nonce
			} else {
				delete(s.nonces, u.addr)
			}
		case undoCode:
			if u.had {
				s.code[u.addr] = u.code
			} else {
				delete(s.code, u.addr)
			}
		case undoStorage:
			sk := storageKey{u.addr, u.key}
			if u.had {
				s.storage[sk] = u.word
			} else {
				delete(s.storage, sk)
			}
		}
	}
	s.journal = s.journal[:mark]
}

// transfer moves value between balances, failing on insufficient funds.
func (s *state) transfer(from, to ethtypes.Address, v ethtypes.Wei) error {
	if v.Sign() < 0 {
		return errNegativeValue
	}
	if v.IsZero() {
		return nil
	}
	fb := s.balance(from)
	if fb.Cmp(v) < 0 {
		return errInsufficientFunds
	}
	s.setBalance(from, fb.Sub(v))
	s.setBalance(to, s.balance(to).Add(v))
	return nil
}
