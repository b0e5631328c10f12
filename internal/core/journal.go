package core

// Journal is an undo log of state mutations, the pattern of
// go-ethereum's state journal: each entry holds the inverse of one
// mutation and the block it belongs to, and Revert undoes every entry
// newer than a block, newest first. A head follower uses it to roll
// back a bounded reorg without keeping copies of its state.
//
// A nil *Journal records nothing, so code shared with the batch
// pipeline journals only when a caller sets one. A Journal is not safe
// for concurrent use.
type Journal struct {
	entries []journalEntry
	// block tags the entries recorded from now on.
	block uint64
	// floor is the oldest block Revert can return to: entries of blocks
	// up to it were trimmed or never recorded.
	floor uint64
}

type journalEntry struct {
	block uint64
	undo  func()
}

// NewJournal returns an empty journal over the state at block floor;
// it can revert to floor and no further.
func NewJournal(floor uint64) *Journal {
	return &Journal{block: floor, floor: floor}
}

// Begin tags the entries recorded from now on with block b.
func (j *Journal) Begin(b uint64) {
	if j != nil {
		j.block = b
	}
}

// Record appends the inverse of a mutation.
func (j *Journal) Record(undo func()) {
	if j != nil {
		j.entries = append(j.entries, journalEntry{block: j.block, undo: undo})
	}
}

// Revert undoes, newest first, every entry of a block after b, tags
// later entries with b, and reports how many entries it undid. It
// undoes nothing and reports false when b is below the journal's
// floor, or the journal is nil.
func (j *Journal) Revert(b uint64) (int, bool) {
	if j == nil || b < j.floor {
		return 0, false
	}
	i := len(j.entries)
	for i > 0 && j.entries[i-1].block > b {
		i--
		j.entries[i].undo()
		j.entries[i] = journalEntry{}
	}
	undone := len(j.entries) - i
	j.entries = j.entries[:i]
	j.block = b
	return undone, true
}

// Trim forgets the entries of blocks up to b; the journal can then
// revert no further back than b.
func (j *Journal) Trim(b uint64) {
	if j == nil || b <= j.floor {
		return
	}
	i := 0
	for i < len(j.entries) && j.entries[i].block <= b {
		i++
	}
	n := copy(j.entries, j.entries[i:])
	clear(j.entries[n:])
	j.entries = j.entries[:n]
	j.floor = b
}

// Len returns the number of entries held.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.entries)
}

// JournalKey records how to put m[k] back as it is now, present or
// absent. Call it before writing or deleting m[k].
func JournalKey[K comparable, V any](j *Journal, m map[K]V, k K) {
	if j == nil {
		return
	}
	old, had := m[k]
	j.Record(func() {
		if had {
			m[k] = old
		} else {
			delete(m, k)
		}
	})
}

// JournalValue records how to put *p back as it is now. Call it before
// changing *p.
func JournalValue[T any](j *Journal, p *T) {
	if j == nil {
		return
	}
	old := *p
	j.Record(func() { *p = old })
}
