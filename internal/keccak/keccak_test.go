package keccak

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

// Known-answer vectors. The selector and event-topic vectors pin the exact
// values the Ethereum ecosystem depends on, so any permutation bug would
// surface immediately.
var kats = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"Transfer(address,address,uint256)", "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"},
}

var selectorKATs = []struct {
	sig  string
	want string // first 4 bytes, hex
}{
	{"transfer(address,uint256)", "a9059cbb"},
	{"approve(address,uint256)", "095ea7b3"},
	{"balanceOf(address)", "70a08231"},
	{"transferFrom(address,address,uint256)", "23b872dd"},
}

func TestSum256KnownAnswers(t *testing.T) {
	for _, kat := range kats {
		got := Sum256([]byte(kat.in))
		if hex.EncodeToString(got[:]) != kat.want {
			t.Errorf("Sum256(%q) = %x, want %s", kat.in, got, kat.want)
		}
	}
}

func TestSelectorKnownAnswers(t *testing.T) {
	for _, kat := range selectorKATs {
		got := Sum256([]byte(kat.sig))
		if hex.EncodeToString(got[:4]) != kat.want {
			t.Errorf("selector(%q) = %x, want %s", kat.sig, got[:4], kat.want)
		}
	}
}

// Absorbing the input in chunks of any size, across rate-block
// boundaries, gives the one-shot digest.
func TestStreamingMatchesOneShot(t *testing.T) {
	data := []byte(strings.Repeat("drainer-as-a-service profit sharing ", 40))
	want := Sum256(data)

	for _, chunk := range []int{1, 7, 135, 136, 137, 300} {
		var parts [][]byte
		for i := 0; i < len(data); i += chunk {
			parts = append(parts, data[i:min(i+chunk, len(data))])
		}
		if got := Sum256(parts...); got != want {
			t.Errorf("chunk size %d: got %x, want %x", chunk, got, want)
		}
	}
}

func TestMultiSliceSum256(t *testing.T) {
	joined := Sum256([]byte("hello world"))
	split := Sum256([]byte("hello "), []byte("world"))
	if joined != split {
		t.Errorf("multi-slice Sum256 mismatch: %x vs %x", joined, split)
	}
}

// Property: splitting the input at any point never changes the digest.
func TestQuickSplitInvariance(t *testing.T) {
	f := func(data []byte, split uint8) bool {
		if len(data) == 0 {
			return true
		}
		at := int(split) % len(data)
		one := Sum256(data)
		two := Sum256(data[:at], data[at:])
		return one == two
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct single-byte extensions yield distinct digests
// (collision here would indicate a broken permutation).
func TestQuickExtensionChangesDigest(t *testing.T) {
	f := func(data []byte) bool {
		base := Sum256(data)
		ext := Sum256(append(append([]byte{}, data...), 0x42))
		return base != ext
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSum256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
