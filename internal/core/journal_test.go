package core

import (
	"maps"
	"testing"
)

// TestJournalRevertUndoesNewerBlocksNewestFirst records map and value
// writes over three blocks and reverts them one block at a time: each
// revert must restore exactly the state at the end of its block.
func TestJournalRevertUndoesNewerBlocksNewestFirst(t *testing.T) {
	j := NewJournal(0)
	m := map[string]int{"a": 1}
	v := 10
	set := func(k string, x int) {
		JournalKey(j, m, k)
		m[k] = x
	}
	var states []map[string]int
	var values []int
	for b := uint64(1); b <= 3; b++ {
		states, values = append(states, maps.Clone(m)), append(values, v)
		j.Begin(b)
		set("a", int(b)*100)             // overwrite
		set(string(rune('a'+b)), int(b)) // insert
		JournalKey(j, m, "a")
		delete(m, "a")
		JournalValue(j, &v)
		v += int(b)
	}
	if j.Len() != 12 {
		t.Fatalf("journal holds %d entries, want 12", j.Len())
	}
	for b := 2; b >= 0; b-- {
		undone, ok := j.Revert(uint64(b))
		if !ok || undone != 4 {
			t.Fatalf("revert to %d: undid %d entries (ok %v), want 4", b, undone, ok)
		}
		if !maps.Equal(m, states[b]) || v != values[b] {
			t.Fatalf("revert to %d: state %v/%d, want %v/%d", b, m, v, states[b], values[b])
		}
	}
}

// TestJournalTrimRaisesTheFloor checks that trimmed blocks can no
// longer be reverted to, while later ones still can.
func TestJournalTrimRaisesTheFloor(t *testing.T) {
	j := NewJournal(5)
	v := 0
	for b := uint64(6); b <= 9; b++ {
		j.Begin(b)
		JournalValue(j, &v)
		v = int(b)
	}
	if _, ok := j.Revert(4); ok {
		t.Fatal("reverted below the floor the journal started at")
	}
	j.Trim(7)
	if j.Len() != 2 {
		t.Fatalf("journal holds %d entries after trimming to block 7, want 2", j.Len())
	}
	if _, ok := j.Revert(6); ok {
		t.Fatal("reverted to a trimmed block")
	}
	if v != 9 {
		t.Fatalf("a refused revert changed the state to %d", v)
	}
	if undone, ok := j.Revert(7); !ok || undone != 2 || v != 7 {
		t.Fatalf("revert to the floor: undid %d (ok %v), state %d; want 2, true, 7", undone, ok, v)
	}
}

// TestNilJournalRecordsNothing pins the no-op contract the batch
// pipeline relies on.
func TestNilJournalRecordsNothing(t *testing.T) {
	var j *Journal
	m := map[int]int{}
	v := 1
	j.Begin(3)
	JournalKey(j, m, 1)
	JournalValue(j, &v)
	j.Record(func() { t.Fatal("a nil journal ran an undo") })
	j.Trim(2)
	if _, ok := j.Revert(0); ok || j.Len() != 0 {
		t.Fatal("a nil journal reverted or holds entries")
	}
}
