package ethtypes

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestHexToAddressRoundTrip(t *testing.T) {
	in := "0xfcaeaa5aac84d00f1c5854113581881b42bda745"
	a, err := HexToAddress(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hex() != in {
		t.Errorf("Hex() = %s, want %s", a.Hex(), in)
	}
	if a.Short() != "0xfcaeaa" {
		t.Errorf("Short() = %s, want 0xfcaeaa", a.Short())
	}
}

func TestHexToAddressErrors(t *testing.T) {
	for _, bad := range []string{"", "0x", "0x1234", "zzzz", "0x" + strings.Repeat("f", 39), "0x" + strings.Repeat("g", 40)} {
		if _, err := HexToAddress(bad); err == nil {
			t.Errorf("HexToAddress(%q) succeeded, want error", bad)
		}
	}
}

func TestHexToHash(t *testing.T) {
	in := "0x86a5fc45f8e3c174fcbcdb04132a259d1af488db760befbdc0fbec4bfa6fba6d"
	h, err := HexToHash(in)
	if err != nil {
		t.Fatal(err)
	}
	if h.Hex() != in {
		t.Errorf("Hex() = %s, want %s", h.Hex(), in)
	}
	if h.IsZero() {
		t.Error("non-zero hash reported IsZero")
	}
}

// EIP-55 reference vectors from the EIP itself.
func TestChecksumKnownAnswers(t *testing.T) {
	vectors := []string{
		"0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
		"0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
		"0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
		"0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
	}
	for _, v := range vectors {
		a := Addr(v)
		if got := a.Checksum(); got != v {
			t.Errorf("Checksum(%s) = %s", v, got)
		}
	}
}

func TestBytesToAddressPadding(t *testing.T) {
	a := BytesToAddress([]byte{0xab, 0xcd})
	want := "0x" + strings.Repeat("0", 36) + "abcd"
	if a.Hex() != want {
		t.Errorf("got %s, want %s", a.Hex(), want)
	}
	// Longer than 20 bytes keeps the last 20 (CREATE address rule).
	long := make([]byte, 32)
	long[12] = 0x99 // first byte of the trailing 20
	if got := BytesToAddress(long); got[0] != 0x99 {
		t.Errorf("truncation kept wrong bytes: %s", got.Hex())
	}
}

func TestWeiArithmetic(t *testing.T) {
	v := Ether(9).Add(GWei(130_000_000)) // 9.13 ETH
	op := v.MulDiv(30, 100)
	af := v.MulDiv(70, 100)
	if got := op.Add(af).Cmp(v); got > 0 {
		t.Errorf("split exceeds input")
	}
	if op.EtherFloat() < 2.73 || op.EtherFloat() > 2.75 {
		t.Errorf("operator share = %f ETH, want ~2.74", op.EtherFloat())
	}
	if af.EtherFloat() < 6.38 || af.EtherFloat() > 6.40 {
		t.Errorf("affiliate share = %f ETH, want ~6.39", af.EtherFloat())
	}
}

func TestWeiImmutability(t *testing.T) {
	a := Ether(1)
	b := a.Add(Ether(2))
	if a.Cmp(Ether(1)) != 0 {
		t.Error("Add mutated its receiver")
	}
	if b.Cmp(Ether(3)) != 0 {
		t.Error("Add produced wrong sum")
	}
	big := a.Big()
	big.SetInt64(0)
	if a.IsZero() {
		t.Error("Big() aliases internal state")
	}
}

func TestWeiFromBigNil(t *testing.T) {
	if w := WeiFromBig(nil); !w.IsZero() {
		t.Errorf("WeiFromBig(nil) = %s, want 0", w)
	}
	src := big.NewInt(42)
	w := WeiFromBig(src)
	src.SetInt64(99)
	if w.Uint64() != 42 {
		t.Error("WeiFromBig aliases its argument")
	}
}

// Property: MulDiv(p, 100) + MulDiv(100-p, 100) never exceeds the input
// and falls short by at most 1 wei of rounding dust — the invariant the
// profit-sharing classifier's tolerance depends on.
func TestQuickSplitConservation(t *testing.T) {
	f := func(amount uint32, pct uint8) bool {
		p := int64(pct%39) + 1 // 1..39
		v := NewWei(int64(amount))
		lo := v.MulDiv(p, 100)
		hi := v.MulDiv(100-p, 100)
		total := lo.Add(hi)
		if total.Cmp(v) > 0 {
			return false
		}
		dust := v.Sub(total)
		return dust.Cmp(NewWei(2)) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: checksum round-trips for arbitrary addresses.
func TestQuickChecksumRoundTrip(t *testing.T) {
	f := func(raw [20]byte) bool {
		a := Address(raw)
		got, err := HexToAddress(a.Checksum())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroValues(t *testing.T) {
	var a Address
	if !a.IsZero() {
		t.Error("zero Address not IsZero")
	}
	var w Wei
	if !w.IsZero() || w.String() != "0" {
		t.Error("zero Wei not usable")
	}
	if w.Add(Ether(1)).Cmp(Ether(1)) != 0 {
		t.Error("zero Wei not additive identity")
	}
}
