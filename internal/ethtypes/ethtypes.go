// Package ethtypes defines the primitive Ethereum value types shared by
// every substrate in this repository: 20-byte addresses, 32-byte hashes,
// and arbitrary-precision Wei amounts, together with hex encoding and
// EIP-55 checksumming.
package ethtypes

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/keccak"
)

// AddressLength is the byte length of an Ethereum account address.
const AddressLength = 20

// HashLength is the byte length of a Keccak-256 hash.
const HashLength = 32

// Address is a 20-byte Ethereum account address. The zero value is the
// zero address, which the chain treats as "no recipient" (contract
// creation) in transactions.
type Address [AddressLength]byte

// Hash is a 32-byte Keccak-256 digest used for transaction and block
// identities and event topics.
type Hash [HashLength]byte

// ZeroAddress is the all-zero address.
var ZeroAddress Address

var errBadHex = errors.New("ethtypes: malformed hex input")

// HexToAddress parses a 0x-prefixed or bare 40-hex-digit string. It
// returns an error for any other shape; checksum casing is not enforced.
func HexToAddress(s string) (Address, error) {
	var a Address
	b, err := decodeHex(s, AddressLength)
	if err != nil {
		return a, fmt.Errorf("address %q: %w", s, err)
	}
	copy(a[:], b)
	return a, nil
}

// Addr converts a hex string to an Address the way go-ethereum's
// HexToAddress does: lenient, no error path. Invalid hex digits decode
// as far as possible and the result is right-aligned per the
// BytesToAddress truncation rule. Use HexToAddress when the input is
// untrusted and malformed strings must be rejected.
func Addr(s string) Address {
	s = strings.TrimPrefix(s, "0x")
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, _ := hex.DecodeString(s)
	return BytesToAddress(b)
}

// HexToHash parses a 0x-prefixed or bare 64-hex-digit string.
func HexToHash(s string) (Hash, error) {
	var h Hash
	b, err := decodeHex(s, HashLength)
	if err != nil {
		return h, fmt.Errorf("hash %q: %w", s, err)
	}
	copy(h[:], b)
	return h, nil
}

func decodeHex(s string, want int) ([]byte, error) {
	s = strings.TrimPrefix(s, "0x")
	if len(s) != want*2 {
		return nil, fmt.Errorf("%w: got %d hex digits, want %d", errBadHex, len(s), want*2)
	}
	return hex.DecodeString(s)
}

// BytesToAddress returns the address formed by the last 20 bytes of b,
// left-padding with zeros when b is short. This matches Ethereum's
// truncation rule for CREATE-derived addresses.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// BytesToHash returns the hash formed by the last 32 bytes of b.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// Hex returns the lowercase 0x-prefixed representation.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// String renders the EIP-55 checksummed form, the canonical display
// format used throughout reports.
func (a Address) String() string { return a.Checksum() }

// Short returns the abbreviated 0x-prefixed first-3-byte form the paper
// uses to name accounts (e.g. "0xfcaeaa").
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:3]) }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Checksum returns the EIP-55 mixed-case checksummed representation.
func (a Address) Checksum() string {
	lower := hex.EncodeToString(a[:])
	sum := keccak.Sum256([]byte(lower))
	out := []byte("0x" + lower)
	for i, c := range lower {
		if c >= 'a' && c <= 'f' {
			// Uppercase when the corresponding checksum nibble >= 8.
			nibble := sum[i/2]
			if i%2 == 0 {
				nibble >>= 4
			}
			if nibble&0x0f >= 8 {
				out[2+i] = byte(c) - 'a' + 'A'
			}
		}
	}
	return string(out)
}

// Hex returns the lowercase 0x-prefixed representation.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// Wei is an arbitrary-precision token amount in the chain's smallest
// unit. Wei values are immutable: every arithmetic method returns a new
// value and never aliases its operands' internals.
type Wei struct {
	i big.Int
}

// NewWei returns a Wei holding v.
func NewWei(v int64) Wei {
	var w Wei
	w.i.SetInt64(v)
	return w
}

// WeiFromBig copies b into a Wei. A nil b yields zero.
func WeiFromBig(b *big.Int) Wei {
	var w Wei
	if b != nil {
		w.i.Set(b)
	}
	return w
}

// WeiFromBytes returns the Wei whose big-endian representation is b.
func WeiFromBytes(b []byte) Wei {
	var w Wei
	w.i.SetBytes(b)
	return w
}

// Ether returns whole ether expressed in wei (1e18 wei per ether).
func Ether(n int64) Wei {
	w := NewWei(n)
	return w.Mul64(1_000_000_000_000_000_000)
}

// GWei returns n gigawei.
func GWei(n int64) Wei {
	w := NewWei(n)
	return w.Mul64(1_000_000_000)
}

// Big returns a fresh copy of the underlying integer.
func (w Wei) Big() *big.Int { return new(big.Int).Set(&w.i) }

// Add returns w + v.
func (w Wei) Add(v Wei) Wei {
	var out Wei
	out.i.Add(&w.i, &v.i)
	return out
}

// Sub returns w - v.
func (w Wei) Sub(v Wei) Wei {
	var out Wei
	out.i.Sub(&w.i, &v.i)
	return out
}

// Mul64 returns w * n.
func (w Wei) Mul64(n int64) Wei {
	var out Wei
	out.i.Mul(&w.i, big.NewInt(n))
	return out
}

// MulDiv returns w * num / den in one step, avoiding intermediate
// truncation; this is how profit-sharing contracts compute percentage
// splits (msg.value * 20 / 100).
func (w Wei) MulDiv(num, den int64) Wei {
	var out Wei
	out.i.Mul(&w.i, big.NewInt(num))
	out.i.Div(&out.i, big.NewInt(den))
	return out
}

// Cmp compares w and v, returning -1, 0 or +1.
func (w Wei) Cmp(v Wei) int { return w.i.Cmp(&v.i) }

// Sign returns -1, 0 or +1 for negative, zero, positive.
func (w Wei) Sign() int { return w.i.Sign() }

// IsZero reports whether w is exactly zero.
func (w Wei) IsZero() bool { return w.i.Sign() == 0 }

// Float64 returns an approximate float representation (used only for
// reporting ratios, never for accounting).
func (w Wei) Float64() float64 {
	f, _ := new(big.Float).SetInt(&w.i).Float64()
	return f
}

// EtherFloat returns the amount in ether as a float, for display.
func (w Wei) EtherFloat() float64 { return w.Float64() / 1e18 }

// String renders the amount in wei.
func (w Wei) String() string { return w.i.String() }

// Bytes returns the big-endian byte representation without leading zeros.
func (w Wei) Bytes() []byte { return w.i.Bytes() }

// AppendBytes appends the big-endian representation of w without
// leading zeros (what Bytes returns) to dst, allocating only when dst
// lacks the capacity.
func (w Wei) AppendBytes(dst []byte) []byte {
	n := (w.i.BitLen() + 7) / 8
	dst = append(dst, make([]byte, n)...)
	w.i.FillBytes(dst[len(dst)-n:])
	return dst
}

// Uint64 returns the low 64 bits; callers must know the value fits.
func (w Wei) Uint64() uint64 { return w.i.Uint64() }
