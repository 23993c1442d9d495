package bits

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Scratch-reuse forms: each writes into a caller-owned destination slice,
// growing it only when its capacity is insufficient, and returns the
// (possibly re-sliced) destination. Destinations must not alias inputs.
//
// One body per primitive: these Into forms are the implementation, and
// FromBytes, ToBytes, Scramble and AppendFCS are one-line wrappers over
// them, so the unit tests run the production code. Where the allocating
// form returns a non-nil empty slice on empty input, its wrapper passes
// []byte{} as the destination.

func grow(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// ScrambleInto is Scrambler.Scramble writing into dst. A seeded scrambler
// reads its sequence from the period table and leaves the register where
// stepping Next once per bit would; the zero state never leaves zero and
// keeps the bit-serial loop.
func (s *Scrambler) ScrambleInto(dst, in []byte) []byte {
	dst = grow(dst, len(in))
	if s.state&0x7F == 0 {
		for i, b := range in {
			dst[i] = (b ^ s.Next()) & 1
		}
		return dst
	}
	p := int(scramblerPeriod.pos[s.state&0x7F])
	for done := 0; done < len(in); {
		src := in[done:min(len(in), done+scramblerCycle-p)]
		seq := scramblerPeriod.seq[p:][:len(src)]
		out := dst[done:][:len(src)]
		i := 0
		for ; i+8 <= len(src); i += 8 { // eight bits per word: the & keeps bit 0 of each byte
			w := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(seq[i:])
			binary.LittleEndian.PutUint64(out[i:], w&0x0101010101010101)
		}
		for ; i < len(src); i++ {
			out[i] = (src[i] ^ seq[i]) & 1
		}
		done += len(src)
		p = (p + len(src)) % scramblerCycle
	}
	s.state = scramblerPeriod.state[p]
	return dst
}

// FromBytesInto is FromBytes writing into dst.
func FromBytesInto(dst, data []byte) []byte {
	dst = grow(dst, len(data)*8)
	for j, b := range data {
		for i := 0; i < 8; i++ {
			dst[j*8+i] = (b >> i) & 1
		}
	}
	return dst
}

// ToBytesInto is ToBytes writing into dst.
func ToBytesInto(dst, bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d is not a multiple of 8", len(bits))
	}
	dst = grow(dst, len(bits)/8)
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("bits: element %d = %d is not a bit", i, b)
		}
		dst[i/8] |= b << (i % 8)
	}
	return dst, nil
}

// AppendFCSInto is AppendFCS writing into dst.
func AppendFCSInto(dst, data []byte) []byte {
	dst = grow(dst, len(data)+FCSLen)
	copy(dst, data)
	binary.LittleEndian.PutUint32(dst[len(data):], crc32.ChecksumIEEE(data))
	return dst
}
