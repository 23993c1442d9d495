package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

// scrambleRef is the bit-serial ScrambleInto the period table replaced,
// kept as a test-only oracle: one Next step per bit.
func scrambleRef(s *Scrambler, in []byte) []byte {
	dst := make([]byte, len(in))
	for i, b := range in {
		dst[i] = (b ^ s.Next()) & 1
	}
	return dst
}

// TestScrambleMatchesReference runs the table-driven ScrambleInto and the
// bit-serial oracle from all 128 register states, including the zero state,
// over lengths around the 127-bit period and non-bit inputs, into a dirty
// destination, and requires the same output bytes and the same final
// register state. A second call continues from where the first left off.
func TestScrambleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := []int{0, 1, 2, 6, 7, 126, 127, 128, 253, 254, 255, 381, 1000, 12096}
	for st := 0; st < 0x80; st++ {
		for _, n := range lengths {
			in := randomBits(rng, n)
			if n > 0 && st%5 == 0 {
				in[rng.Intn(n)] = byte(2 + rng.Intn(254)) // output keeps only bit 0
			}
			got, want := Scrambler{state: byte(st)}, Scrambler{state: byte(st)}
			for pass := 0; pass < 2; pass++ {
				out := got.ScrambleInto(stale(n), in)
				ref := scrambleRef(&want, in)
				if !bytes.Equal(out, ref) {
					t.Fatalf("state %#x, %d bits, pass %d: output differs from the bit-serial oracle", st, n, pass)
				}
				if got.state != want.state {
					t.Fatalf("state %#x, %d bits, pass %d: final state %#x, oracle %#x", st, n, pass, got.state, want.state)
				}
			}
		}
	}
}

// BenchmarkScrambleInto times scrambling one 1500-byte packet's data bits
// at 54 Mb/s (56 OFDM symbols of 216 bits).
func BenchmarkScrambleInto(b *testing.B) {
	in := randomBits(rand.New(rand.NewSource(5)), 216*56)
	dst := make([]byte, len(in))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewScrambler(0x5D).ScrambleInto(dst, in)
	}
}
