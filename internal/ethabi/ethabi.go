// Package ethabi implements the subset of the Ethereum contract ABI used
// by the drainer substrate: 4-byte function selectors, and encoding /
// decoding of address, uint256, bool, dynamic bytes, tuples, and dynamic
// arrays (notably the CallData[] argument of drainer multicall
// functions).
package ethabi

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/ethtypes"
	"repro/internal/keccak"
)

// Word is the ABI word size in bytes.
const Word = 32

// Selector returns the 4-byte function selector for a canonical
// signature such as "claimRewards(address)".
func Selector(signature string) [4]byte {
	sum := keccak.Sum256([]byte(signature))
	var sel [4]byte
	copy(sel[:], sum[:4])
	return sel
}

// EventTopic returns the 32-byte topic hash for an event signature such
// as "Transfer(address,address,uint256)".
func EventTopic(signature string) ethtypes.Hash {
	return ethtypes.Hash(keccak.Sum256([]byte(signature)))
}

// Kind enumerates the supported ABI type kinds.
type Kind int

// Supported ABI kinds.
const (
	KindAddress Kind = iota
	KindUint256
	KindBool
	KindBytes // dynamic bytes
	KindTuple
	KindSlice // dynamic array
)

// Type describes an ABI type. Elem is set for KindSlice; Fields for
// KindTuple.
type Type struct {
	Kind   Kind
	Elem   *Type
	Fields []Type
}

// Convenience constructors.
var (
	// AddressT is the address type descriptor.
	AddressT = Type{Kind: KindAddress}
	// Uint256T is the uint256 type descriptor.
	Uint256T = Type{Kind: KindUint256}
	// BoolT is the bool type descriptor.
	BoolT = Type{Kind: KindBool}
	// BytesT is the dynamic bytes type descriptor.
	BytesT = Type{Kind: KindBytes}
)

// SliceOf returns the dynamic-array type of elem.
func SliceOf(elem Type) Type { return Type{Kind: KindSlice, Elem: &elem} }

// TupleOf returns a tuple type with the given field types.
func TupleOf(fields ...Type) Type { return Type{Kind: KindTuple, Fields: fields} }

// dynamic reports whether values of t use tail (offset) encoding.
func (t Type) dynamic() bool {
	switch t.Kind {
	case KindBytes, KindSlice:
		return true
	case KindTuple:
		for _, f := range t.Fields {
			if f.dynamic() {
				return true
			}
		}
	}
	return false
}

// headSize is the number of head bytes values of t occupy.
func (t Type) headSize() int {
	if t.dynamic() {
		return Word
	}
	if t.Kind == KindTuple {
		n := 0
		for _, f := range t.Fields {
			n += f.headSize()
		}
		return n
	}
	return Word
}

// Errors returned by the codec.
var (
	ErrArity = errors.New("ethabi: wrong number of values")
	ErrValue = errors.New("ethabi: value does not match type")
	ErrShort = errors.New("ethabi: calldata too short")
	ErrDirty = errors.New("ethabi: non-zero padding bytes")
)

// Encode ABI-encodes values against types using standard head/tail
// encoding. Values must be: ethtypes.Address, *big.Int (non-negative),
// bool, []byte, or []any for tuples and slices.
func Encode(types []Type, values []any) ([]byte, error) {
	if len(types) != len(values) {
		return nil, fmt.Errorf("%w: %d types, %d values", ErrArity, len(types), len(values))
	}
	return encodeTuple(types, values)
}

// EncodeCall returns selector || Encode(types, values) — complete
// calldata for a function invocation.
func EncodeCall(signature string, types []Type, values []any) ([]byte, error) {
	body, err := Encode(types, values)
	if err != nil {
		return nil, err
	}
	sel := Selector(signature)
	return append(sel[:], body...), nil
}

func encodeTuple(types []Type, values []any) ([]byte, error) {
	headSize := 0
	for _, t := range types {
		headSize += t.headSize()
	}
	head := make([]byte, 0, headSize)
	var tail []byte
	for i, t := range types {
		if t.dynamic() {
			var off [Word]byte
			putUint(off[:], uint64(headSize+len(tail)))
			head = append(head, off[:]...)
			enc, err := encodeValue(t, values[i])
			if err != nil {
				return nil, err
			}
			tail = append(tail, enc...)
		} else {
			enc, err := encodeValue(t, values[i])
			if err != nil {
				return nil, err
			}
			head = append(head, enc...)
		}
	}
	return append(head, tail...), nil
}

func encodeValue(t Type, v any) ([]byte, error) {
	switch t.Kind {
	case KindAddress:
		a, ok := v.(ethtypes.Address)
		if !ok {
			return nil, fmt.Errorf("%w: want Address, got %T", ErrValue, v)
		}
		out := make([]byte, Word)
		copy(out[Word-ethtypes.AddressLength:], a[:])
		return out, nil
	case KindUint256:
		b, ok := v.(*big.Int)
		if !ok {
			return nil, fmt.Errorf("%w: want *big.Int, got %T", ErrValue, v)
		}
		if b.Sign() < 0 || b.BitLen() > 256 {
			return nil, fmt.Errorf("%w: uint256 out of range", ErrValue)
		}
		out := make([]byte, Word)
		b.FillBytes(out)
		return out, nil
	case KindBool:
		x, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: want bool, got %T", ErrValue, v)
		}
		out := make([]byte, Word)
		if x {
			out[Word-1] = 1
		}
		return out, nil
	case KindBytes:
		b, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("%w: want []byte, got %T", ErrValue, v)
		}
		out := make([]byte, Word+pad(len(b)))
		putUint(out[:Word], uint64(len(b)))
		copy(out[Word:], b)
		return out, nil
	case KindTuple:
		vals, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("%w: want []any tuple, got %T", ErrValue, v)
		}
		if len(vals) != len(t.Fields) {
			return nil, fmt.Errorf("%w: tuple arity", ErrArity)
		}
		return encodeTuple(t.Fields, vals)
	case KindSlice:
		vals, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("%w: want []any slice, got %T", ErrValue, v)
		}
		elemTypes := make([]Type, len(vals))
		for i := range elemTypes {
			elemTypes[i] = *t.Elem
		}
		body, err := encodeTuple(elemTypes, vals)
		if err != nil {
			return nil, err
		}
		out := make([]byte, Word, Word+len(body))
		putUint(out[:Word], uint64(len(vals)))
		return append(out, body...), nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrValue, t.Kind)
	}
}

// Decode parses ABI-encoded data against types, returning one Go value
// per type in the same representation Encode accepts.
func Decode(types []Type, data []byte) ([]any, error) {
	return decodeTuple(types, data, data)
}

// decodeTuple decodes fields laid out at the start of head; dynamic
// offsets are relative to head's start, whole is the enclosing scope
// (identical to head for top-level calls).
func decodeTuple(types []Type, head, whole []byte) ([]any, error) {
	out := make([]any, len(types))
	pos := 0
	for i, t := range types {
		if t.dynamic() {
			if len(head) < pos+Word {
				return nil, ErrShort
			}
			off, err := getUint(head[pos : pos+Word])
			if err != nil {
				return nil, err
			}
			if off > uint64(len(whole)) {
				return nil, ErrShort
			}
			v, err := decodeValue(t, whole[off:])
			if err != nil {
				return nil, err
			}
			out[i] = v
			pos += Word
		} else {
			n := t.headSize()
			if len(head) < pos+n {
				return nil, ErrShort
			}
			v, err := decodeValue(t, head[pos:pos+n])
			if err != nil {
				return nil, err
			}
			out[i] = v
			pos += n
		}
	}
	return out, nil
}

func decodeValue(t Type, data []byte) (any, error) {
	switch t.Kind {
	case KindAddress:
		if len(data) < Word {
			return nil, ErrShort
		}
		for _, b := range data[:Word-ethtypes.AddressLength] {
			if b != 0 {
				return nil, ErrDirty
			}
		}
		return ethtypes.BytesToAddress(data[:Word]), nil
	case KindUint256:
		if len(data) < Word {
			return nil, ErrShort
		}
		return new(big.Int).SetBytes(data[:Word]), nil
	case KindBool:
		if len(data) < Word {
			return nil, ErrShort
		}
		for _, b := range data[:Word-1] {
			if b != 0 {
				return nil, ErrDirty
			}
		}
		switch data[Word-1] {
		case 0:
			return false, nil
		case 1:
			return true, nil
		default:
			return nil, fmt.Errorf("%w: bool byte %d", ErrValue, data[Word-1])
		}
	case KindBytes:
		if len(data) < Word {
			return nil, ErrShort
		}
		n, err := getUint(data[:Word])
		if err != nil {
			return nil, err
		}
		if uint64(len(data)-Word) < n {
			return nil, ErrShort
		}
		out := make([]byte, n)
		copy(out, data[Word:Word+n])
		return out, nil
	case KindTuple:
		return decodeTuple(t.Fields, data, data)
	case KindSlice:
		if len(data) < Word {
			return nil, ErrShort
		}
		n, err := getUint(data[:Word])
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) { // coarse bound against hostile lengths
			return nil, ErrShort
		}
		elemTypes := make([]Type, n)
		for i := range elemTypes {
			elemTypes[i] = *t.Elem
		}
		body := data[Word:]
		return decodeTuple(elemTypes, body, body)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrValue, t.Kind)
	}
}

func pad(n int) int { return (n + Word - 1) / Word * Word }

func putUint(word []byte, v uint64) {
	for i := 0; i < 8; i++ {
		word[Word-1-i] = byte(v >> (8 * i))
	}
}

func getUint(word []byte) (uint64, error) {
	for _, b := range word[:Word-8] {
		if b != 0 {
			return 0, fmt.Errorf("%w: offset or length wider than 64 bits", ErrValue)
		}
	}
	var v uint64
	for _, b := range word[Word-8:] {
		v = v<<8 | uint64(b)
	}
	return v, nil
}
