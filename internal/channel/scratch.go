package channel

import (
	"math"
	"math/rand"

	"cos/internal/ofdm"
)

// Scratch-reuse forms of the channel operators, and the one body of each:
// Taps, Convolve, FrequencyResponse and Apply are one-line wrappers over
// them, so the unit tests run the production code. TapsInto / ConvolveInto /
// ApplyTo write into caller-owned buffers, growing them only when capacity is
// insufficient; FrequencyResponseFrom turns an already-computed tap vector
// into H[k] without re-evaluating the Doppler processes. Tap evaluation draws
// no randomness — only AddAWGN consumes the rng — so computing taps once and
// reusing them for both the frequency response and the convolution is
// bit-identical to calling FrequencyResponse and Apply separately.

// TapsInto is Taps writing into dst.
func (c *TDL) TapsInto(dst []complex128, t float64) []complex128 {
	if cap(dst) < len(c.procs) {
		dst = make([]complex128, len(c.procs))
	}
	dst = dst[:len(c.procs)]
	for i := range c.procs {
		dst[i] = c.procs[i].at(t)
	}
	return dst
}

// FrequencyResponseFrom computes H[k] for every subcarrier bin from an
// already-evaluated tap vector (as returned by Taps or TapsInto).
func FrequencyResponseFrom(taps []complex128) [ofdm.NumSubcarriers]complex128 {
	var h [ofdm.NumSubcarriers]complex128
	for k := 0; k < ofdm.NumSubcarriers; k++ {
		var sum complex128
		for m, g := range taps {
			angle := -2 * math.Pi * float64(k) * float64(m) / ofdm.NumSubcarriers
			sum += g * complex(math.Cos(angle), math.Sin(angle))
		}
		h[k] = sum
	}
	return h
}

// ConvolveInto is Convolve writing into dst, which must not alias samples.
func ConvolveInto(dst, samples, taps []complex128) []complex128 {
	if cap(dst) < len(samples) {
		dst = make([]complex128, len(samples))
	}
	dst = dst[:len(samples)]
	for n := range samples {
		var sum complex128
		for m, g := range taps {
			if n-m < 0 {
				break
			}
			sum += g * samples[n-m]
		}
		dst[n] = sum
	}
	return dst
}

// ApplyTo is Apply writing into dst using precomputed taps: convolution
// followed by AWGN, consuming the rng exactly as Apply does.
func ApplyTo(dst, samples, taps []complex128, noiseVar float64, rng *rand.Rand) []complex128 {
	dst = ConvolveInto(dst, samples, taps)
	AddAWGN(dst, noiseVar, rng)
	return dst
}
