package ethabi

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ethtypes"
)

func TestSelectorKnownAnswers(t *testing.T) {
	cases := []struct{ sig, want string }{
		{"transfer(address,uint256)", "a9059cbb"},
		{"transferFrom(address,address,uint256)", "23b872dd"},
		{"approve(address,uint256)", "095ea7b3"},
		{"balanceOf(address)", "70a08231"},
	}
	for _, c := range cases {
		sel := Selector(c.sig)
		if hex.EncodeToString(sel[:]) != c.want {
			t.Errorf("Selector(%q) = %x, want %s", c.sig, sel, c.want)
		}
	}
}

func TestEventTopicTransfer(t *testing.T) {
	got := EventTopic("Transfer(address,address,uint256)")
	want := "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
	if got.Hex() != want {
		t.Errorf("EventTopic = %s, want %s", got, want)
	}
}

func TestEncodeStaticArgs(t *testing.T) {
	to := ethtypes.Addr("0x00006deacd9ad19db3d81f8410ea2bd5ea570000")
	amount := big.NewInt(1_000_000)
	data, err := EncodeCall("transfer(address,uint256)",
		[]Type{AddressT, Uint256T}, []any{to, amount})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4+64 {
		t.Fatalf("calldata length = %d, want 68", len(data))
	}
	if hex.EncodeToString(data[:4]) != "a9059cbb" {
		t.Errorf("selector = %x", data[:4])
	}
	// Address right-aligned in word 1.
	if !bytes.Equal(data[4+12:4+32], to[:]) {
		t.Error("address not right-aligned")
	}
	// Amount right-aligned in word 2.
	if got := new(big.Int).SetBytes(data[4+32 : 4+64]); got.Cmp(amount) != 0 {
		t.Errorf("amount decoded as %v", got)
	}
}

func TestEncodeDecodeDynamicBytes(t *testing.T) {
	payload := []byte("phishing calldata body")
	enc, err := Encode([]Type{BytesT, Uint256T}, []any{payload, big.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := Decode([]Type{BytesT, Uint256T}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0].([]byte), payload) {
		t.Errorf("bytes round trip = %q", vals[0])
	}
	if vals[1].(*big.Int).Int64() != 7 {
		t.Errorf("uint round trip = %v", vals[1])
	}
}

// The multicall shape drainers use: multicall((address,bytes)[]).
func TestEncodeDecodeMulticallArg(t *testing.T) {
	callT := TupleOf(AddressT, BytesT)
	argT := SliceOf(callT)

	tokenA := ethtypes.Addr("0x1111111111111111111111111111111111111111")
	tokenB := ethtypes.Addr("0x2222222222222222222222222222222222222222")
	calls := []any{
		[]any{tokenA, []byte{0xa9, 0x05, 0x9c, 0xbb, 0x01}},
		[]any{tokenB, []byte{0x23, 0xb8, 0x72, 0xdd}},
	}

	enc, err := Encode([]Type{argT}, []any{calls})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := Decode([]Type{argT}, enc)
	if err != nil {
		t.Fatal(err)
	}
	got := vals[0].([]any)
	if len(got) != 2 {
		t.Fatalf("decoded %d calls, want 2", len(got))
	}
	first := got[0].([]any)
	if first[0].(ethtypes.Address) != tokenA {
		t.Error("first call target mismatch")
	}
	if !bytes.Equal(first[1].([]byte), []byte{0xa9, 0x05, 0x9c, 0xbb, 0x01}) {
		t.Error("first call payload mismatch")
	}
	second := got[1].([]any)
	if second[0].(ethtypes.Address) != tokenB {
		t.Error("second call target mismatch")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode([]Type{AddressT}, []any{}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := Encode([]Type{AddressT}, []any{"not an address"}); err == nil {
		t.Error("wrong value type accepted")
	}
	if _, err := Encode([]Type{Uint256T}, []any{big.NewInt(-1)}); err == nil {
		t.Error("negative uint accepted")
	}
	over := new(big.Int).Lsh(big.NewInt(1), 256)
	if _, err := Encode([]Type{Uint256T}, []any{over}); err == nil {
		t.Error("2^256 accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]Type{Uint256T}, make([]byte, 31)); err == nil {
		t.Error("short word accepted")
	}
	// Dirty address padding.
	word := make([]byte, 32)
	word[0] = 0xff
	if _, err := Decode([]Type{AddressT}, word); err == nil {
		t.Error("dirty address padding accepted")
	}
	// Bool with value 2.
	word = make([]byte, 32)
	word[31] = 2
	if _, err := Decode([]Type{BoolT}, word); err == nil {
		t.Error("bool byte 2 accepted")
	}
	// Bytes whose claimed length exceeds the buffer.
	word = make([]byte, 64)
	word[31] = 0xff
	if _, err := Decode([]Type{BytesT}, word); err == nil {
		t.Error("overlong bytes accepted")
	}
}

// Property: (address, uint256, bytes) triples round-trip.
func TestQuickTripleRoundTrip(t *testing.T) {
	types := []Type{AddressT, Uint256T, BytesT}
	f := func(addr [20]byte, amount uint64, blob []byte) bool {
		in := []any{ethtypes.Address(addr), new(big.Int).SetUint64(amount), blob}
		enc, err := Encode(types, in)
		if err != nil {
			return false
		}
		out, err := Decode(types, enc)
		if err != nil {
			return false
		}
		return out[0].(ethtypes.Address) == ethtypes.Address(addr) &&
			out[1].(*big.Int).Uint64() == amount &&
			bytes.Equal(out[2].([]byte), blob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding length is always a multiple of the word size.
func TestQuickWordAlignment(t *testing.T) {
	f := func(blob []byte, flag bool) bool {
		enc, err := Encode([]Type{BytesT, BoolT}, []any{blob, flag})
		return err == nil && len(enc)%Word == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNestedDynamicTupleRoundTrip(t *testing.T) {
	inner := TupleOf(Uint256T, BytesT)
	outer := TupleOf(AddressT, inner)
	addr := ethtypes.Addr("0x3333333333333333333333333333333333333333")
	in := []any{[]any{addr, []any{big.NewInt(5), []byte("xyz")}}}
	enc, err := Encode([]Type{outer}, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode([]Type{outer}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("nested tuple round trip: got %#v", out)
	}
}
