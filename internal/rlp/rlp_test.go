package rlp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/big"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// str encodes one byte string.
func str(s string) []byte { return AppendString(nil, []byte(s)) }

// list wraps already-encoded items in a list header, the way the chain
// builds its transaction and block encodings.
func list(items ...[]byte) []byte {
	var payload []byte
	for _, it := range items {
		payload = append(payload, it...)
	}
	return append(AppendList(nil, len(payload)), payload...)
}

// Canonical vectors from the Ethereum wiki RLP specification.
func TestEncodeKnownAnswers(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"dog", str("dog"), "83646f67"},
		{"[cat dog]", list(str("cat"), str("dog")), "c88363617483646f67"},
		{"empty string", str(""), "80"},
		{"uint 0", AppendUint(nil, 0), "80"},
		{"byte 0x00", AppendString(nil, []byte{0x00}), "00"},
		{"uint 15", AppendUint(nil, 15), "0f"},
		{"uint 1024", AppendUint(nil, 1024), "820400"},
		{"empty list", list(), "c0"},
		// Set-theoretic representation of three: [ [], [[]], [ [], [[]] ] ].
		{"three", list(list(), list(list()), list(list(), list(list()))), "c7c0c1c0c3c0c1c0"},
		{"56-byte string", str("Lorem ipsum dolor sit amet, consectetur adipisicing elit"),
			"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"},
	}
	for _, c := range cases {
		if hex.EncodeToString(c.got) != c.want {
			t.Errorf("%s: encoded %x, want %s", c.name, c.got, c.want)
		}
	}
}

func TestEncodeBig(t *testing.T) {
	v, _ := new(big.Int).SetString("102030405060708090a0b0c0d0e0f2", 16)
	want := "8f102030405060708090a0b0c0d0e0f2"
	if got := AppendBig(nil, v); hex.EncodeToString(got) != want {
		t.Errorf("got %x, want %s", got, want)
	}
	if got := AppendBig(nil, nil); hex.EncodeToString(got) != "80" {
		t.Errorf("nil big.Int encoded %x, want 80", got)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		enc  []byte
		want Item
	}{
		{str("hello"), []byte("hello")},
		{
			list(str("a"), list(str("nested"), str("")), str(strings.Repeat("x", 100))),
			[]Item{[]byte("a"), []Item{[]byte("nested"), []byte{}}, []byte(strings.Repeat("x", 100))},
		},
		{str(""), []byte{}},
	}
	for _, c := range cases {
		dec, err := Decode(c.enc)
		if err != nil {
			t.Fatalf("Decode(%x): %v", c.enc, err)
		}
		if !reflect.DeepEqual(c.want, dec) {
			t.Errorf("Decode(%x) = %#v, want %#v", c.enc, dec, c.want)
		}
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"single byte wrapped", "8100"},        // 0x00 must encode as 0x00
		{"long form short string", "b801ff"},   // 1-byte string in long form
		{"leading zero in length", "b90001ff"}, // length has leading zero
		{"truncated string", "83646f"},
		{"truncated list", "c883636174"},
		{"empty input", ""},
	}
	for _, c := range cases {
		in, _ := hex.DecodeString(c.in)
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: Decode(%s) succeeded, want error", c.name, c.in)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	in, _ := hex.DecodeString("83646f6700")
	if _, err := Decode(in); !errors.Is(err, ErrTrailing) {
		t.Errorf("got %v, want ErrTrailing", err)
	}
}

func TestUintAccessors(t *testing.T) {
	enc := AppendUint(nil, 1024)
	item, _ := Decode(enc)
	v, err := Uint(item)
	if err != nil || v != 1024 {
		t.Errorf("Uint = %d, %v; want 1024", v, err)
	}
	// Leading-zero integers are rejected.
	if _, err := Uint([]byte{0x00, 0x01}); err == nil {
		t.Error("Uint accepted leading zero")
	}
	if _, err := Uint([]Item{}); err == nil {
		t.Error("Uint accepted a list")
	}
	if _, err := Uint(bytes.Repeat([]byte{0xff}, 9)); err == nil {
		t.Error("Uint accepted 72-bit integer")
	}
}

func TestBigAccessor(t *testing.T) {
	want, _ := new(big.Int).SetString("ffffffffffffffffffffffff", 16)
	enc := AppendBig(nil, want)
	item, _ := Decode(enc)
	got, err := Big(item)
	if err != nil || got.Cmp(want) != 0 {
		t.Errorf("Big = %v, %v; want %v", got, err, want)
	}
}

func TestListAccessor(t *testing.T) {
	enc := list(str("a"), str("b"))
	item, _ := Decode(enc)
	l, err := List(item)
	if err != nil || len(l) != 2 {
		t.Fatalf("List = %v, %v", l, err)
	}
	if _, err := List([]byte("str")); err == nil {
		t.Error("List accepted a string item")
	}
	if _, err := Bytes([]Item{}); err == nil {
		t.Error("Bytes accepted a list item")
	}
}

// Property: every byte string round-trips.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := Decode(AppendString(nil, data))
		if err != nil {
			return false
		}
		b, err := Bytes(dec)
		return err == nil && bytes.Equal(b, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every uint64 round-trips canonically.
func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc := AppendUint(nil, v)
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		got, err := Uint(dec)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lists of strings round-trip with order preserved.
func TestQuickListRoundTrip(t *testing.T) {
	f := func(parts [][]byte) bool {
		encoded := make([][]byte, len(parts))
		for i, p := range parts {
			encoded[i] = AppendString(nil, p)
		}
		dec, err := Decode(list(encoded...))
		if err != nil {
			return false
		}
		l, err := List(dec)
		if err != nil || len(l) != len(parts) {
			return false
		}
		for i := range parts {
			b, err := Bytes(l[i])
			if err != nil || !bytes.Equal(b, parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkEncodeTxShape encodes a transaction-shaped list the way the
// chain hashes one.
func BenchmarkEncodeTxShape(b *testing.B) {
	from := bytes.Repeat([]byte{0xaa}, 20)
	value := big.NewInt(1e18)
	data := make([]byte, 68)
	b.ReportAllocs()
	var payload []byte
	for i := 0; i < b.N; i++ {
		payload = AppendUint(payload[:0], 7)
		payload = AppendString(payload, from)
		payload = AppendBig(payload, value)
		payload = AppendString(payload, data)
		payload = AppendUint(payload, 21000)
		encSink = append(AppendList(encSink[:0], len(payload)), payload...)
	}
}

var encSink []byte
