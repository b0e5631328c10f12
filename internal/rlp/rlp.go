// Package rlp implements Ethereum's Recursive Length Prefix serialization.
//
// RLP is the wire format for transactions and block headers; the chain
// substrate hashes RLP encodings, built with the Append functions, to
// derive transaction, block and contract identities. Decode parses an
// encoding back into items. Only the two RLP kinds exist: byte strings
// and lists.
package rlp

import (
	"errors"
	"fmt"
	"math/big"
)

// Item is a decoded RLP value: either a byte string ([]byte) or a list
// ([]Item).
type Item interface{}

var (
	// ErrTruncated indicates the input ended before a complete item.
	ErrTruncated = errors.New("rlp: truncated input")
	// ErrCanonical indicates a non-minimal length or integer encoding.
	ErrCanonical = errors.New("rlp: non-canonical encoding")
	// ErrTrailing indicates extra bytes after the top-level item.
	ErrTrailing = errors.New("rlp: trailing bytes")
)

// AppendString appends the RLP encoding of the byte string s to dst.
func AppendString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	dst = appendLength(dst, len(s), 0x80)
	return append(dst, s...)
}

// AppendUint appends the canonical RLP encoding of v (big-endian,
// no leading zeros; zero encodes as the empty string).
func AppendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, 0x80)
	}
	var buf [8]byte
	n := 0
	for x := v; x > 0; x >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		buf[n-1-i] = byte(v >> (8 * i))
	}
	return AppendString(dst, buf[:n])
}

// AppendBig appends the canonical RLP encoding of a non-negative big
// integer. Nil encodes as zero.
func AppendBig(dst []byte, v *big.Int) []byte {
	if v == nil || v.Sign() == 0 {
		return append(dst, 0x80)
	}
	return AppendString(dst, v.Bytes())
}

// AppendList appends a list header for a payload of n bytes; the caller
// must append exactly n payload bytes afterwards.
func AppendList(dst []byte, payloadLen int) []byte {
	return appendLength(dst, payloadLen, 0xc0)
}

func appendLength(dst []byte, n int, base byte) []byte {
	if n < 56 {
		return append(dst, base+byte(n))
	}
	var buf [8]byte
	k := 0
	for x := n; x > 0; x >>= 8 {
		k++
	}
	for i := 0; i < k; i++ {
		buf[k-1-i] = byte(n >> (8 * i))
	}
	dst = append(dst, base+55+byte(k))
	return append(dst, buf[:k]...)
}

// Decode parses a single top-level RLP item and requires the input to be
// fully consumed.
func Decode(data []byte) (Item, error) {
	item, rest, err := decodeItem(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	return item, nil
}

func decodeItem(data []byte) (Item, []byte, error) {
	if len(data) == 0 {
		return nil, nil, ErrTruncated
	}
	b := data[0]
	switch {
	case b < 0x80: // single byte
		return []byte{b}, data[1:], nil
	case b <= 0xb7: // short string
		n := int(b - 0x80)
		if len(data) < 1+n {
			return nil, nil, ErrTruncated
		}
		s := data[1 : 1+n]
		if n == 1 && s[0] < 0x80 {
			return nil, nil, fmt.Errorf("%w: single byte below 0x80 must be self-encoded", ErrCanonical)
		}
		return cloneBytes(s), data[1+n:], nil
	case b <= 0xbf: // long string
		n, rest, err := decodeLongLength(data, b-0xb7)
		if err != nil {
			return nil, nil, err
		}
		if n < 56 {
			return nil, nil, fmt.Errorf("%w: long form for short string", ErrCanonical)
		}
		if len(rest) < n {
			return nil, nil, ErrTruncated
		}
		return cloneBytes(rest[:n]), rest[n:], nil
	case b <= 0xf7: // short list
		n := int(b - 0xc0)
		if len(data) < 1+n {
			return nil, nil, ErrTruncated
		}
		items, err := decodeListPayload(data[1 : 1+n])
		return items, data[1+n:], err
	default: // long list
		n, rest, err := decodeLongLength(data, b-0xf7)
		if err != nil {
			return nil, nil, err
		}
		if n < 56 {
			return nil, nil, fmt.Errorf("%w: long form for short list", ErrCanonical)
		}
		if len(rest) < n {
			return nil, nil, ErrTruncated
		}
		items, err := decodeListPayload(rest[:n])
		return items, rest[n:], err
	}
}

func decodeLongLength(data []byte, lenOfLen byte) (int, []byte, error) {
	k := int(lenOfLen)
	if len(data) < 1+k {
		return 0, nil, ErrTruncated
	}
	if data[1] == 0 {
		return 0, nil, fmt.Errorf("%w: leading zero in length", ErrCanonical)
	}
	if k > 8 {
		return 0, nil, fmt.Errorf("%w: length of length %d", ErrCanonical, k)
	}
	n := 0
	for _, c := range data[1 : 1+k] {
		n = n<<8 | int(c)
		if n < 0 {
			return 0, nil, fmt.Errorf("%w: length overflow", ErrCanonical)
		}
	}
	return n, data[1+k:], nil
}

func decodeListPayload(payload []byte) ([]Item, error) {
	items := []Item{}
	for len(payload) > 0 {
		item, rest, err := decodeItem(payload)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		payload = rest
	}
	return items, nil
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Bytes extracts a byte-string item, failing on lists.
func Bytes(item Item) ([]byte, error) {
	b, ok := item.([]byte)
	if !ok {
		return nil, fmt.Errorf("rlp: expected string item, got %T", item)
	}
	return b, nil
}

// List extracts a list item, failing on byte strings.
func List(item Item) ([]Item, error) {
	l, ok := item.([]Item)
	if !ok {
		return nil, fmt.Errorf("rlp: expected list item, got %T", item)
	}
	return l, nil
}

// Uint extracts a canonical unsigned integer from a byte-string item.
func Uint(item Item) (uint64, error) {
	b, err := Bytes(item)
	if err != nil {
		return 0, err
	}
	if len(b) > 8 {
		return 0, fmt.Errorf("%w: integer wider than 64 bits", ErrCanonical)
	}
	if len(b) > 0 && b[0] == 0 {
		return 0, fmt.Errorf("%w: leading zero in integer", ErrCanonical)
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// Big extracts an arbitrary-precision unsigned integer.
func Big(item Item) (*big.Int, error) {
	b, err := Bytes(item)
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && b[0] == 0 {
		return nil, fmt.Errorf("%w: leading zero in integer", ErrCanonical)
	}
	return new(big.Int).SetBytes(b), nil
}
