package coding

import (
	"fmt"
	"sync"
)

// Scratch-reuse forms of the coding chain. Each XxxInto function writes
// into a caller-owned destination slice, growing it only when its capacity is
// insufficient, and returns the (possibly re-sliced) destination. The
// destination must not alias the input.
//
// One body per primitive: these Into forms are the implementation, and
// ConvEncode, Puncture, DepunctureMetrics, Interleave and Deinterleave are
// one-line wrappers over them, so the unit tests run the production code.
// The wrappers pass a non-nil empty destination, keeping their non-nil
// result on empty input.

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// interleaverCache shares Interleaver instances per (NCBPS, NBPSC) pair.
// The permutation tables are read-only after construction, so one instance
// can serve any number of goroutines.
var interleaverCache struct {
	mu sync.RWMutex
	m  map[[2]int]*Interleaver
}

// CachedInterleaver returns a shared, immutable Interleaver for the given
// parameters, building it at most once per process. The eight 802.11a modes
// use only four distinct NCBPS values, so the cache stays tiny.
func CachedInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	key := [2]int{ncbps, nbpsc}
	interleaverCache.mu.RLock()
	il := interleaverCache.m[key]
	interleaverCache.mu.RUnlock()
	if il != nil {
		return il, nil
	}
	il, err := NewInterleaver(ncbps, nbpsc)
	if err != nil {
		return nil, err
	}
	interleaverCache.mu.Lock()
	if interleaverCache.m == nil {
		interleaverCache.m = make(map[[2]int]*Interleaver)
	}
	if existing := interleaverCache.m[key]; existing != nil {
		il = existing
	} else {
		interleaverCache.m[key] = il
	}
	interleaverCache.mu.Unlock()
	return il, nil
}

// InterleaveInto is Interleave writing into dst.
func InterleaveInto[T any](il *Interleaver, dst, in []T) ([]T, error) {
	return applyBlocksInto(dst, in, il.ncbps, il.perm)
}

// DeinterleaveInto is Deinterleave writing into dst.
func DeinterleaveInto[T any](il *Interleaver, dst, in []T) ([]T, error) {
	return applyBlocksInto(dst, in, il.ncbps, il.inv)
}

func applyBlocksInto[T any](dst, in []T, block int, perm []int) ([]T, error) {
	if len(in)%block != 0 {
		return nil, fmt.Errorf("coding: length %d is not a multiple of block size %d", len(in), block)
	}
	if cap(dst) < len(in) {
		dst = make([]T, len(in))
	}
	dst = dst[:len(in)]
	for base := 0; base < len(in); base += block {
		for k, j := range perm {
			dst[base+j] = in[base+k]
		}
	}
	return dst, nil
}

// ConvEncodeInto is ConvEncode writing into dst.
func ConvEncodeInto(dst, in []byte) ([]byte, error) {
	dst = growBytes(dst, 2*len(in))
	state := uint(0)
	for i, b := range in {
		if b > 1 {
			return nil, fmt.Errorf("coding: input element %d = %d is not a bit", i, b)
		}
		window := uint(b)<<6 | state
		out := encoderOutputs[window&(1<<ConstraintLength-1)]
		dst[2*i] = out[0]
		dst[2*i+1] = out[1]
		state = window >> 1
	}
	return dst, nil
}

// PunctureInto is Puncture writing into dst.
func PunctureInto(dst, in []byte, r CodeRate) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	period, kept := r.keptIndices()
	if len(in)%period != 0 {
		return nil, fmt.Errorf("coding: input length %d is not a multiple of puncture period %d", len(in), period)
	}
	if r == Rate1_2 {
		dst = growBytes(dst, len(in))
		copy(dst, in)
		return dst, nil
	}
	dst = growBytes(dst, len(in)/period*len(kept))
	w := 0
	for base := 0; base < len(in); base += period {
		blk := in[base : base+period]
		for _, k := range kept {
			dst[w] = blk[k]
			w++
		}
	}
	return dst, nil
}

// DepunctureMetricsInto is DepunctureMetrics writing into dst.
func DepunctureMetricsInto(dst, in []float64, r CodeRate) ([]float64, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	period, kept := r.keptIndices()
	if len(in)%len(kept) != 0 {
		return nil, fmt.Errorf("coding: punctured length %d is not a multiple of %d", len(in), len(kept))
	}
	dst = growFloat64(dst, len(in)/len(kept)*period)
	if r == Rate1_2 {
		copy(dst, in)
		return dst, nil
	}
	clear(dst)
	src := 0
	for base := 0; base < len(dst); base += period {
		blk := dst[base : base+period]
		for _, k := range kept {
			blk[k] = in[src]
			src++
		}
	}
	return dst, nil
}
