package cluster

import (
	"encoding/binary"
	"runtime/debug"
	"testing"

	"repro/internal/ethtypes"
)

// chainAddr derives a distinct address per chain position.
func chainAddr(i int) ethtypes.Address {
	var a ethtypes.Address
	binary.BigEndian.PutUint64(a[12:], uint64(i)+1)
	return a
}

// TestFindDeepChainIterative is the regression test for the recursive
// unionFind.find: it builds a one-million-link parent chain and
// resolves it from the deep end. The recursion this guards against
// grew one stack frame per link, so under the lowered stack ceiling it
// faulted ("goroutine stack exceeds ... limit") long before reaching
// the root; the iterative two-pass version needs constant stack at any
// chain length.
func TestFindDeepChainIterative(t *testing.T) {
	const links = 1_000_000
	uf := newUnionFind()
	uf.add(chainAddr(0))
	for i := 1; i <= links; i++ {
		uf.parent[chainAddr(i)] = chainAddr(i - 1)
	}

	// 64 MiB is far more than the iterative find will ever touch and far
	// less than a million recursive frames need.
	old := debug.SetMaxStack(64 << 20)
	defer debug.SetMaxStack(old)

	root, ok := uf.find(chainAddr(links))
	if !ok {
		t.Fatalf("find(deep member) reported unknown")
	}
	if root != chainAddr(0) {
		t.Fatalf("find(deep member) = %s, want %s", root, chainAddr(0))
	}
	// The second pass must have compressed the entire walked chain.
	for _, i := range []int{1, links / 2, links - 1, links} {
		if got := uf.parent[chainAddr(i)]; got != chainAddr(0) {
			t.Fatalf("path not compressed at link %d: parent = %s, want %s", i, got, chainAddr(0))
		}
	}
	// A repeated lookup hits the compressed path.
	if root, ok := uf.find(chainAddr(links)); !ok || root != chainAddr(0) {
		t.Fatalf("second find = (%s, %v), want (%s, true)", root, ok, chainAddr(0))
	}
}

// TestUnionAfterDeepChain exercises union across two long chains — the
// shape an incremental radar feed produces when two large families
// merge.
func TestUnionAfterDeepChain(t *testing.T) {
	const links = 100_000
	uf := newUnionFind()
	uf.add(chainAddr(0))
	for i := 1; i <= links; i++ {
		uf.parent[chainAddr(i)] = chainAddr(i - 1)
	}
	uf.add(chainAddr(links + 1))
	for i := links + 2; i <= 2*links; i++ {
		uf.parent[chainAddr(i)] = chainAddr(i - 1)
	}
	if !uf.union(chainAddr(links), chainAddr(2*links)) {
		t.Fatalf("union of two distinct chains reported no merge")
	}
	ra, _ := uf.find(chainAddr(links / 2))
	rb, _ := uf.find(chainAddr(links + links/2))
	if ra != rb {
		t.Fatalf("roots differ after union: %s vs %s", ra, rb)
	}
}
