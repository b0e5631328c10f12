// Package keccak implements the Keccak-256 hash function as used by
// Ethereum (the original Keccak padding, not the FIPS-202 SHA3 padding).
//
// Keccak-256 is the workhorse of the Ethereum substrate in this repository:
// it derives contract addresses, transaction hashes, 4-byte function
// selectors, event topics, and EIP-55 checksummed address casing. The
// implementation is a from-scratch sponge over Keccak-f[1600] with a
// 1088-bit rate, written against the Keccak reference specification.
package keccak

import (
	"encoding/binary"
	"math/bits"
)

const (
	// rate is the sponge rate in bytes for Keccak-256 (1088 bits).
	rate = 136
	// Size is the digest size in bytes.
	Size = 32
)

// roundConstants are the iota-step constants for the 24 rounds of
// Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// state is the 5x5 lane matrix of Keccak-f[1600], flattened with lane
// (x, y) at index x+5*y.
type state [25]uint64

// permute applies the full 24-round Keccak-f[1600] permutation in place.
// The 25 lanes stay in locals for all 24 rounds, and each round is
// straight-line code: lane (x, y) is held in a{x+5y}; rho rotates it by
// its reference offset and pi moves it to (y, 2x+3y), held in b.
func (a *state) permute() {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]
	for round := 0; round < 24; round++ {
		// Theta.
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		// Rho and pi, one output row per line.
		b0, b1, b2, b3, b4 := a0^d0, bits.RotateLeft64(a6^d1, 44), bits.RotateLeft64(a12^d2, 43), bits.RotateLeft64(a18^d3, 21), bits.RotateLeft64(a24^d4, 14)
		b5, b6, b7, b8, b9 := bits.RotateLeft64(a3^d3, 28), bits.RotateLeft64(a9^d4, 20), bits.RotateLeft64(a10^d0, 3), bits.RotateLeft64(a16^d1, 45), bits.RotateLeft64(a22^d2, 61)
		b10, b11, b12, b13, b14 := bits.RotateLeft64(a1^d1, 1), bits.RotateLeft64(a7^d2, 6), bits.RotateLeft64(a13^d3, 25), bits.RotateLeft64(a19^d4, 8), bits.RotateLeft64(a20^d0, 18)
		b15, b16, b17, b18, b19 := bits.RotateLeft64(a4^d4, 27), bits.RotateLeft64(a5^d0, 36), bits.RotateLeft64(a11^d1, 10), bits.RotateLeft64(a17^d2, 15), bits.RotateLeft64(a23^d3, 56)
		b20, b21, b22, b23, b24 := bits.RotateLeft64(a2^d2, 62), bits.RotateLeft64(a8^d3, 55), bits.RotateLeft64(a14^d4, 39), bits.RotateLeft64(a15^d0, 41), bits.RotateLeft64(a21^d1, 2)
		// Chi, then iota.
		a0, a1, a2, a3, a4 = b0^(^b1&b2), b1^(^b2&b3), b2^(^b3&b4), b3^(^b4&b0), b4^(^b0&b1)
		a5, a6, a7, a8, a9 = b5^(^b6&b7), b6^(^b7&b8), b7^(^b8&b9), b8^(^b9&b5), b9^(^b5&b6)
		a10, a11, a12, a13, a14 = b10^(^b11&b12), b11^(^b12&b13), b12^(^b13&b14), b13^(^b14&b10), b14^(^b10&b11)
		a15, a16, a17, a18, a19 = b15^(^b16&b17), b16^(^b17&b18), b17^(^b18&b19), b18^(^b19&b15), b19^(^b15&b16)
		a20, a21, a22, a23, a24 = b20^(^b21&b22), b21^(^b22&b23), b22^(^b23&b24), b23^(^b24&b20), b24^(^b20&b21)
		a0 ^= roundConstants[round]
	}
	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// digest is the sponge state Sum256 absorbs its input into.
type digest struct {
	a      state
	buf    [rate]byte
	buffed int
}

// absorb XORs one full rate block into the state and permutes.
func (d *digest) absorb(block []byte) {
	for i := 0; i < rate/8; i++ {
		d.a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	d.a.permute()
}

// write absorbs p, buffering any partial block.
func (d *digest) write(p []byte) {
	for len(p) > 0 {
		space := rate - d.buffed
		take := len(p)
		if take > space {
			take = space
		}
		copy(d.buf[d.buffed:], p[:take])
		d.buffed += take
		p = p[take:]
		if d.buffed == rate {
			d.absorb(d.buf[:])
			d.buffed = 0
		}
	}
}

// finalize pads with the original Keccak domain bits (0x01 … 0x80) and
// squeezes a single 32-byte block.
func (d *digest) finalize(out *[Size]byte) {
	for i := d.buffed; i < rate; i++ {
		d.buf[i] = 0
	}
	d.buf[d.buffed] ^= 0x01
	d.buf[rate-1] ^= 0x80
	d.absorb(d.buf[:])
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], d.a[i])
	}
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data ...[]byte) [Size]byte {
	var d digest
	for _, p := range data {
		d.write(p)
	}
	var out [Size]byte
	d.finalize(&out)
	return out
}
