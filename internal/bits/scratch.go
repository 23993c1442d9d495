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

// ScrambleInto is Scrambler.Scramble writing into dst.
func (s *Scrambler) ScrambleInto(dst, in []byte) []byte {
	dst = grow(dst, len(in))
	for i, b := range in {
		dst[i] = (b ^ s.Next()) & 1
	}
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
