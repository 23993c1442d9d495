package coding

import "fmt"

// Interleaver implements the 802.11a per-OFDM-symbol block interleaver
// (17.3.5.6). It is defined by two permutations over one OFDM symbol's worth
// of coded bits (NCBPS): the first spreads adjacent coded bits across
// non-adjacent subcarriers; the second alternates bits between more and less
// significant constellation positions.
//
// In CoS the deinterleaver is what spreads the zeroed bit metrics of a
// silence symbol across the codeword (Sec. III-E), preventing erasure bursts
// from overwhelming a local trellis region.
type Interleaver struct {
	ncbps int
	perm  []int // perm[k] = output position of input bit k
	inv   []int // inv[j]  = input position of output bit j
}

// NewInterleaver builds the interleaver for a symbol of ncbps coded bits
// carrying nbpsc bits per subcarrier. ncbps must be a positive multiple of
// both 16 and nbpsc.
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("coding: NCBPS %d must be a positive multiple of 16", ncbps)
	}
	if nbpsc <= 0 || ncbps%nbpsc != 0 {
		return nil, fmt.Errorf("coding: NBPSC %d must divide NCBPS %d", nbpsc, ncbps)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int, ncbps)
	inv := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		i := (ncbps/16)*(k%16) + k/16
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		perm[k] = j
		inv[j] = k
	}
	return &Interleaver{ncbps: ncbps, perm: perm, inv: inv}, nil
}

// BlockSize returns NCBPS, the interleaving block length in bits.
func (il *Interleaver) BlockSize() int { return il.ncbps }

// Interleave permutes in (whose length must be a multiple of NCBPS) block by
// block and returns a new slice.
func Interleave[T any](il *Interleaver, in []T) ([]T, error) {
	return InterleaveInto(il, []T{}, in)
}

// Deinterleave applies the inverse permutation block by block.
func Deinterleave[T any](il *Interleaver, in []T) ([]T, error) {
	return DeinterleaveInto(il, []T{}, in)
}

// DepuncturedPositions maps each transmission-order coded bit of one OFDM
// symbol to its index in that symbol's depunctured (mother-code) block: the
// composition of deinterleaving and DepunctureMetrics at rate r. It writes
// NCBPS positions into dst (grown, reusing its capacity) and returns them
// with the depunctured block length. The number of bits kept per puncture
// period must divide NCBPS, so every symbol's block starts on a period
// boundary and the same map serves every symbol of a packet.
func (il *Interleaver) DepuncturedPositions(dst []int, r CodeRate) ([]int, int, error) {
	if !r.Valid() {
		return nil, 0, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	period, kept := r.keptIndices()
	if il.ncbps%len(kept) != 0 {
		return nil, 0, fmt.Errorf("coding: NCBPS %d is not a multiple of %d kept bits per puncture period", il.ncbps, len(kept))
	}
	if cap(dst) < il.ncbps {
		dst = make([]int, il.ncbps)
	}
	dst = dst[:il.ncbps]
	for t, p := range il.inv {
		dst[t] = p/len(kept)*period + kept[p%len(kept)]
	}
	return dst, il.ncbps / len(kept) * period, nil
}
