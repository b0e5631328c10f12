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
	"hash"
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

// piLanes and rhoOffsets walk the combined rho and pi steps as one
// cycle through the 24 non-origin lanes (lane (x, y) at index x+5*y):
// the lane at piLanes[i] receives its predecessor on the cycle,
// rotated left by rhoOffsets[i].
var (
	piLanes    = [24]int{10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1}
	rhoOffsets = [24]int{1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44}
)

// state is the 5x5 lane matrix of Keccak-f[1600], flattened with lane
// (x, y) at index x+5*y.
type state [25]uint64

// permute applies the full 24-round Keccak-f[1600] permutation in place.
func (a *state) permute() {
	for round := 0; round < 24; round++ {
		// Theta.
		c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
		c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
		c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
		c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
		c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
		d := [5]uint64{
			c4 ^ bits.RotateLeft64(c1, 1),
			c0 ^ bits.RotateLeft64(c2, 1),
			c1 ^ bits.RotateLeft64(c3, 1),
			c2 ^ bits.RotateLeft64(c4, 1),
			c3 ^ bits.RotateLeft64(c0, 1),
		}
		for y := 0; y < 25; y += 5 {
			a[y] ^= d[0]
			a[y+1] ^= d[1]
			a[y+2] ^= d[2]
			a[y+3] ^= d[3]
			a[y+4] ^= d[4]
		}
		// Rho and pi.
		t := a[1]
		for i, j := range piLanes {
			a[j], t = bits.RotateLeft64(t, rhoOffsets[i]), a[j]
		}
		// Chi.
		for y := 0; y < 25; y += 5 {
			b0, b1, b2, b3, b4 := a[y], a[y+1], a[y+2], a[y+3], a[y+4]
			a[y] = b0 ^ (^b1 & b2)
			a[y+1] = b1 ^ (^b2 & b3)
			a[y+2] = b2 ^ (^b3 & b4)
			a[y+3] = b3 ^ (^b4 & b0)
			a[y+4] = b4 ^ (^b0 & b1)
		}
		// Iota.
		a[0] ^= roundConstants[round]
	}
}

// digest is a streaming Keccak-256 state implementing hash.Hash.
type digest struct {
	a      state
	buf    [rate]byte
	buffed int
}

// New256 returns a new streaming Keccak-256 hash. The zero-cost way to
// hash a single buffer is Sum256.
func New256() hash.Hash { return &digest{} }

func (d *digest) Size() int      { return Size }
func (d *digest) BlockSize() int { return rate }

func (d *digest) Reset() {
	d.a = state{}
	d.buffed = 0
}

// absorb XORs one full rate block into the state and permutes.
func (d *digest) absorb(block []byte) {
	for i := 0; i < rate/8; i++ {
		d.a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	d.a.permute()
}

func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
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
	return n, nil
}

func (d *digest) Sum(in []byte) []byte {
	// Clone so Sum does not disturb the streaming state, matching the
	// hash.Hash contract.
	dup := *d
	var out [Size]byte
	dup.finalize(&out)
	return append(in, out[:]...)
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
		d.Write(p)
	}
	var out [Size]byte
	d.finalize(&out)
	return out
}
