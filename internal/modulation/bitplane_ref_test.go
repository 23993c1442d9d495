package modulation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The per-point and per-bit bodies the table-driven mapper and demapper
// replaced, kept verbatim as test-only oracles. The production forms must
// reproduce their points, metrics and errors exactly, under
// math.Float64bits, on any input.

// mapBitsRef is the per-point MapBitsInto: one Map call per bit group.
func mapBitsRef(s Scheme, in []byte) ([]complex128, error) {
	m := s.BitsPerSymbol()
	if m == 0 {
		return nil, fmt.Errorf("modulation: invalid scheme %d", int(s))
	}
	if len(in)%m != 0 {
		return nil, fmt.Errorf("modulation: bit count %d is not a multiple of %d", len(in), m)
	}
	out := make([]complex128, len(in)/m)
	for i := range out {
		pt, err := s.Map(in[i*m : (i+1)*m])
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}

// softAxisRef is the per-bit softAxis: every bit rescans every level.
func softAxisRef(out []float64, bitsPerAxis int, y, norm, noiseVar float64) {
	levels := axisLevels(bitsPerAxis)
	for bit := 0; bit < bitsPerAxis; bit++ {
		shift := bitsPerAxis - 1 - bit // bit 0 is the MSB of the axis index
		min0, min1 := math.Inf(1), math.Inf(1)
		for idx, lv := range levels {
			d := y - lv*norm
			d *= d
			if (idx>>shift)&1 == 0 {
				if d < min0 {
					min0 = d
				}
			} else if d < min1 {
				min1 = d
			}
		}
		out[bit] = (min0 - min1) / noiseVar
	}
}

// softDemapRef is SoftDemapInto over softAxisRef.
func softDemapRef(s Scheme, dst []float64, y complex128, noiseVar float64) {
	const minNoiseVar = 1e-9
	if noiseVar < minNoiseVar {
		noiseVar = minNoiseVar
	}
	if s == BPSK {
		dst[0] = 4 * real(y) / noiseVar
		return
	}
	half := len(dst) / 2
	softAxisRef(dst[:half], half, real(y), s.Norm(), noiseVar)
	softAxisRef(dst[half:], half, imag(y), s.Norm(), noiseVar)
}

// specialFloats are the axis values and noise variances where a rewritten
// min or distance could round, order or propagate differently.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
	1e308, -1e308, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e-9, 1e-12, 1 / math.Sqrt(42), 3 / math.Sqrt(10),
	-5 / math.Sqrt(42), 2 / math.Sqrt(42), 4 / math.Sqrt(10),
}

// sameSoftDemap demaps y under the production demapper and the oracle and
// describes the first metric whose bits differ.
func sameSoftDemap(s Scheme, y complex128, noiseVar float64) string {
	var got, want [6]float64
	m := s.BitsPerSymbol()
	if err := s.SoftDemapInto(got[:m], y, noiseVar); err != nil {
		return err.Error()
	}
	softDemapRef(s, want[:m], y, noiseVar)
	for i := 0; i < m; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("metric %d = %v (%#x), oracle %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// TestSoftDemapMatchesReference pins SoftDemapInto to the per-bit oracle
// under math.Float64bits: noisy points near the constellation, exact
// constellation points and decision boundaries (ties), wide-range values,
// and every pairing of the special values on both axes and as the noise.
func TestSoftDemapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range allSchemes {
		pts := s.Constellation()
		var cases []complex128
		for i := 0; i < 20000; i++ {
			pt := pts[rng.Intn(len(pts))]
			cases = append(cases, pt+complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()))
		}
		for i := 0; i < 2000; i++ {
			cases = append(cases, complex(math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100),
				math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100)))
		}
		norm := s.Norm()
		for lv := -8; lv <= 8; lv++ { // points and the boundaries between them
			for lq := -8; lq <= 8; lq++ {
				cases = append(cases, complex(float64(lv)*norm, float64(lq)*norm))
			}
		}
		for _, re := range specialFloats {
			for _, im := range specialFloats {
				cases = append(cases, complex(re, im))
			}
		}
		for _, y := range cases {
			for _, n0 := range []float64{0.05, 1e-12, 1} {
				if diff := sameSoftDemap(s, y, n0); diff != "" {
					t.Fatalf("%v y=%v n0=%v: %s", s, y, n0, diff)
				}
			}
		}
		for _, y := range cases[:200] {
			for _, n0 := range specialFloats {
				if diff := sameSoftDemap(s, y, n0); diff != "" {
					t.Fatalf("%v y=%v n0=%v: %s", s, y, n0, diff)
				}
			}
		}
	}
}

// FuzzSoftDemapMatchesReference decodes the fuzzer's bytes as a scheme
// selector and little-endian float64 (re, im, noise) and requires the
// production demapper and the oracle to agree under math.Float64bits.
func FuzzSoftDemapMatchesReference(f *testing.F) {
	seed := func(s byte, vs ...float64) []byte {
		b := []byte{s}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(3, 0.3, -0.7, 0.05))
	f.Add(seed(2, 1/math.Sqrt(42), 3/math.Sqrt(42), 1e-12))
	f.Add(seed(1, math.NaN(), math.Inf(1), 0.1))
	f.Add(seed(0, math.Copysign(0, -1), 1e308, math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+3*8 {
			return
		}
		s := allSchemes[int(data[0])%len(allSchemes)]
		v := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:])) }
		y, n0 := complex(v(0), v(1)), v(2)
		if diff := sameSoftDemap(s, y, n0); diff != "" {
			t.Errorf("%v y=%v n0=%v: %s", s, y, n0, diff)
		}
	})
}

// TestMapBitsMatchesReference pins the table-driven MapBitsInto to the
// per-point Map loop: identical points under math.Float64bits and
// identical error text, for random streams, every single non-bit position
// and value class, ragged lengths and invalid schemes.
func TestMapBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, s := range append([]Scheme{Scheme(0), Scheme(9)}, allSchemes...) {
		var inputs [][]byte
		for i := 0; i < 200; i++ {
			in := make([]byte, 6*rng.Intn(60))
			for k := range in {
				in[k] = byte(rng.Intn(2))
			}
			inputs = append(inputs, in)
		}
		for _, bad := range []byte{2, 3, 0x80, 0xFF} {
			for k := 0; k < 12; k++ {
				in := make([]byte, 12)
				in[k] = bad
				inputs = append(inputs, in)
			}
		}
		inputs = append(inputs, nil, []byte{}, []byte{1}, []byte{1, 0, 1, 1, 0})
		for i, in := range inputs {
			dirty := make([]complex128, 100)
			for k := range dirty {
				dirty[k] = complex(9, -9)
			}
			got, err := s.MapBitsInto(dirty[:3], in)
			want, errRef := mapBitsRef(s, in)
			if errText(err) != errText(errRef) {
				t.Fatalf("%v input %d: error %q, oracle %q", s, i, errText(err), errText(errRef))
			}
			if len(got) != len(want) {
				t.Fatalf("%v input %d: %d points, oracle %d", s, i, len(got), len(want))
			}
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("%v input %d point %d: %v, oracle %v", s, i, k, got[k], want[k])
				}
			}
		}
	}
}

// BenchmarkSoftDemapInto times one 64-QAM subcarrier's metrics over noisy
// received points, the receiver's per-subcarrier demap.
func BenchmarkSoftDemapInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := QAM64.Constellation()
	ys := make([]complex128, 4096)
	for i := range ys {
		ys[i] = pts[rng.Intn(len(pts))] + complex(0.05*rng.NormFloat64(), 0.05*rng.NormFloat64())
	}
	var dst [6]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := QAM64.SoftDemapInto(dst[:], ys[i&4095], 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
