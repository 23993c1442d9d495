package phy

import (
	"fmt"
	"math"
	"sort"
)

// QuantizeMetrics models a hardware receiver's fixed-point LLR path:
// metrics are clipped at clip times the median magnitude of the non-erased
// metrics and uniformly quantized to 2^bits-1 signed levels (zero stays
// exactly zero, so erasures survive quantization). bits must be in [2,16];
// clip <= 0 selects a 4x-median clipping point.
//
// The median-based scale matters: post-equalization LLRs span orders of
// magnitude across subcarriers (confidence scales with subcarrier SNR), so
// an RMS scale would let the strongest subcarriers crush the weakest to
// zero. Saturating the strong ones instead is harmless — they are already
// certain. Real Viterbi decoders run on 3-6 bit soft inputs; the
// quantization ablation measures how little that costs the CoS pipeline.
func QuantizeMetrics(metrics []float64, bits int, clip float64) ([]float64, error) {
	return QuantizeMetricsInto(nil, metrics, bits, clip)
}

// QuantizeMetricsInto is QuantizeMetrics using s as working storage; the
// returned metrics alias s and are valid until its next quantization. A
// nil s quantizes into fresh storage.
func QuantizeMetricsInto(s *RxScratch, metrics []float64, bits int, clip float64) ([]float64, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("phy: LLR width %d outside [2,16]", bits)
	}
	if clip <= 0 {
		clip = 4
	}
	if s == nil {
		s = &RxScratch{}
	}
	mags := s.mags[:0]
	for _, m := range metrics {
		if m != 0 {
			mags = append(mags, math.Abs(m))
		}
	}
	s.mags = mags
	if s.quant == nil || cap(s.quant) < len(metrics) {
		s.quant = make([]float64, len(metrics))
	}
	out := s.quant[:len(metrics)]
	clear(out)
	if len(mags) == 0 {
		return out, nil // all erased
	}
	sort.Float64s(mags)
	median := mags[len(mags)/2]
	if median == 0 {
		median = mags[len(mags)-1]
	}
	maxMag := clip * median
	levels := float64(int(1)<<(bits-1)) - 1 // e.g. 7 for 4-bit signed
	step := maxMag / levels
	for i, m := range metrics {
		if m == 0 {
			continue // erasure: exactly zero in any width
		}
		q := math.Round(m / step)
		if q > levels {
			q = levels
		}
		if q < -levels {
			q = -levels
		}
		out[i] = q * step
	}
	return out, nil
}
