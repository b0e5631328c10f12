package keccak

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// piLanes and rhoOffsets walk the combined rho and pi steps as one
// cycle through the 24 non-origin lanes (lane (x, y) at index x+5*y):
// the lane at piLanes[i] receives its predecessor on the cycle,
// rotated left by rhoOffsets[i].
var (
	piLanes    = [24]int{10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1}
	rhoOffsets = [24]int{1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44}
)

// permuteRef is the reference Keccak-f[1600]: the lane matrix in
// memory, with rho and pi as one walk of the lane cycle. permute must
// agree with it on every state.
func permuteRef(a *state) {
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

// sum256Ref is Keccak-256 as a one-shot sponge over permuteRef.
func sum256Ref(data []byte) [Size]byte {
	var a state
	padded := append([]byte(nil), data...)
	padded = append(padded, 0x01)
	for len(padded)%rate != 0 {
		padded = append(padded, 0)
	}
	padded[len(padded)-1] |= 0x80
	for off := 0; off < len(padded); off += rate {
		for i := 0; i < rate/8; i++ {
			a[i] ^= binary.LittleEndian.Uint64(padded[off+i*8:])
		}
		permuteRef(&a)
	}
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
	return out
}

// TestPermuteMatchesReference chains 100 permutations from several
// seeded states (plus the zero state) through both implementations.
func TestPermuteMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		var got state
		if seed > 0 {
			rng := rand.New(rand.NewSource(seed))
			for i := range got {
				got[i] = rng.Uint64()
			}
		}
		want := got
		for n := 1; n <= 100; n++ {
			got.permute()
			permuteRef(&want)
			if got != want {
				t.Fatalf("seed %d, permutation %d: got %x, want %x", seed, n, got, want)
			}
		}
	}
}

// TestSum256MatchesReference hashes every input length from 0 to three
// rate blocks, so each padding position and block count is covered.
func TestSum256MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*rate)
	rng.Read(data)
	for n := 0; n <= len(data); n++ {
		if got, want := Sum256(data[:n]), sum256Ref(data[:n]); got != want {
			t.Fatalf("length %d: got %x, want %x", n, got, want)
		}
	}
}

func BenchmarkPermute(b *testing.B) {
	var a state
	for i := 0; i < b.N; i++ {
		a.permute()
	}
}

func BenchmarkPermuteReference(b *testing.B) {
	var a state
	for i := 0; i < b.N; i++ {
		permuteRef(&a)
	}
}
