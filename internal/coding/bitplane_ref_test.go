package coding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The bit-serial bodies the table-driven encoder, puncturer and
// depuncturer replaced, kept verbatim as test-only oracles. The production
// forms must reproduce their bits, metrics and errors exactly.

// puncturePattern is the keep/drop mask the oracles apply periodically over
// the A/B-interleaved rate-1/2 encoder output.
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate2_3:
		return []bool{true, true, true, false}
	case Rate3_4:
		return []bool{true, true, true, false, false, true}
	default:
		return []bool{true, true}
	}
}

// convEncodeRef computes both parities of every window.
func convEncodeRef(in []byte) ([]byte, error) {
	dst := make([]byte, 2*len(in))
	state := uint(0)
	for i, b := range in {
		if b > 1 {
			return nil, fmt.Errorf("coding: input element %d = %d is not a bit", i, b)
		}
		window := uint(b)<<6 | state
		dst[2*i] = parity(window & GeneratorA)
		dst[2*i+1] = parity(window & GeneratorB)
		state = window >> 1
	}
	return dst, nil
}

// punctureRef tests the pattern at i%period for every coded bit.
func punctureRef(in []byte, r CodeRate) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	pat := r.puncturePattern()
	if len(in)%len(pat) != 0 {
		return nil, fmt.Errorf("coding: input length %d is not a multiple of puncture period %d", len(in), len(pat))
	}
	if r == Rate1_2 {
		dst := make([]byte, len(in))
		copy(dst, in)
		return dst, nil
	}
	kept := 0
	for _, k := range pat {
		if k {
			kept++
		}
	}
	dst := make([]byte, len(in)/len(pat)*kept)
	w := 0
	for i, b := range in {
		if pat[i%len(pat)] {
			dst[w] = b
			w++
		}
	}
	return dst, nil
}

// depunctureRef walks the pattern, inserting a zero at every dropped bit.
func depunctureRef(in []float64, r CodeRate) ([]float64, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	pat := r.puncturePattern()
	kept := 0
	for _, k := range pat {
		if k {
			kept++
		}
	}
	if len(in)%kept != 0 {
		return nil, fmt.Errorf("coding: punctured length %d is not a multiple of %d", len(in), kept)
	}
	n := len(in) * len(pat) / kept
	dst := make([]float64, n)
	src, w := 0, 0
	for w < n {
		for _, k := range pat {
			if k {
				dst[w] = in[src]
				src++
			} else {
				dst[w] = 0
			}
			w++
		}
	}
	return dst, nil
}

var allRates = []CodeRate{Rate1_2, Rate2_3, Rate3_4, CodeRate(0), CodeRate(4)}

// bitPlaneDiff runs the encoder, puncturer and depuncturer on in (and on
// metrics) against the oracles, through dirty destinations, and describes
// the first difference in values (math.Float64bits for metrics) or errors.
func bitPlaneDiff(in []byte, metrics []float64, r CodeRate) string {
	got, err := ConvEncodeInto(staleOf(3, byte(7)), in)
	want, errRef := convEncodeRef(in)
	if d := diffSlices(got, err, want, errRef, func(a, b byte) bool { return a == b }); d != "" {
		return "ConvEncodeInto: " + d
	}
	got, err = PunctureInto(staleOf(3, byte(7)), in, r)
	want, errRef = punctureRef(in, r)
	if d := diffSlices(got, err, want, errRef, func(a, b byte) bool { return a == b }); d != "" {
		return fmt.Sprintf("PunctureInto(%v): %s", r, d)
	}
	full, err := DepunctureMetricsInto(staleOf(3, math.NaN()), metrics, r)
	fullRef, errRef := depunctureRef(metrics, r)
	if d := diffSlices(full, err, fullRef, errRef, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}); d != "" {
		return fmt.Sprintf("DepunctureMetricsInto(%v): %s", r, d)
	}
	return ""
}

func diffSlices[T any](got []T, err error, want []T, errRef error, same func(a, b T) bool) string {
	if errText(err) != errText(errRef) {
		return fmt.Sprintf("error %q, oracle %q", errText(err), errText(errRef))
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			return fmt.Sprintf("value %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestBitPlaneMatchesReference pins ConvEncodeInto, PunctureInto and
// DepunctureMetricsInto to their bit-serial oracles: random bit streams of
// every length class, a non-bit at each position, ragged lengths, invalid
// rates, and metrics with signed zeros, NaN and infinities.
func TestBitPlaneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var inputs [][]byte
	for n := 0; n <= 25; n++ {
		inputs = append(inputs, randBits(rng, n))
	}
	for i := 0; i < 100; i++ {
		inputs = append(inputs, randBits(rng, 12*rng.Intn(400)))
	}
	for _, bad := range []byte{2, 0x80, 0xFF} {
		for k := 0; k < 12; k++ {
			in := randBits(rng, 12)
			in[k] = bad
			inputs = append(inputs, in)
		}
	}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e308, math.SmallestNonzeroFloat64}
	for i, in := range inputs {
		metrics := make([]float64, len(in))
		for k := range metrics {
			metrics[k] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				metrics[k] = special[rng.Intn(len(special))]
			}
		}
		for _, r := range allRates {
			if d := bitPlaneDiff(in, metrics, r); d != "" {
				t.Fatalf("input %d (%d bits): %s", i, len(in), d)
			}
		}
	}
}

// FuzzBitPlaneMatchesReference reads a rate selector, then bytes as bits
// (any value, so non-bits reach the error paths) and the same bytes as
// little-endian float64 metrics, and requires the encoder, puncturer and
// depuncturer to match their oracles.
func FuzzBitPlaneMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 1, 0})
	f.Add([]byte{2, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Add([]byte{3, 1, 2, 0, 1, 0, 1})
	f.Add(binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := allRates[int(data[0])%len(allRates)]
		in := data[1:]
		metrics := make([]float64, len(in)/8)
		for i := range metrics {
			metrics[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
		if d := bitPlaneDiff(in, metrics, r); d != "" {
			t.Errorf("%d bytes: %s", len(in), d)
		}
	})
}

// bitPlanePairs are every modulation (NBPSC 1, 2, 4, 6 over 48 data
// subcarriers) with every code rate; the eight 802.11a modes are among them.
var bitPlanePairs = func() (out []struct {
	ncbps, nbpsc int
	r            CodeRate
}) {
	for _, nbpsc := range []int{1, 2, 4, 6} {
		for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
			out = append(out, struct {
				ncbps, nbpsc int
				r            CodeRate
			}{48 * nbpsc, nbpsc, r})
		}
	}
	return out
}()

// TestDepuncturedPositionsMatchDeinterleaveDepuncture checks the fused
// receive map against its definition for every modulation × rate pair:
// scattering a packet's transmission-order metrics through the per-symbol
// map must reproduce DeinterleaveInto followed by DepunctureMetricsInto,
// bit for bit, including the zeros at punctured positions. The map also
// reuses a dirty destination, and rejects an invalid rate and a symbol
// whose size the kept count does not divide.
func TestDepuncturedPositionsMatchDeinterleaveDepuncture(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dirty := staleOf(5, -1)
	for _, p := range bitPlanePairs {
		il, err := NewInterleaver(p.ncbps, p.nbpsc)
		if err != nil {
			t.Fatal(err)
		}
		pos, block, err := il.DepuncturedPositions(dirty, p.r)
		if err != nil {
			t.Fatalf("NCBPS %d, rate %v: %v", p.ncbps, p.r, err)
		}
		dirty = pos
		const nSym = 5
		rx := make([]float64, nSym*p.ncbps)
		for i := range rx {
			rx[i] = rng.NormFloat64()
		}
		deint, err := DeinterleaveInto(il, nil, rx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DepunctureMetricsInto(nil, deint, p.r)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != nSym*block {
			t.Fatalf("NCBPS %d, rate %v: block %d, but %d symbols depuncture to %d metrics",
				p.ncbps, p.r, block, nSym, len(want))
		}
		got := make([]float64, nSym*block)
		for sym := 0; sym < nSym; sym++ {
			for tx, at := range pos {
				got[sym*block+at] = rx[sym*p.ncbps+tx]
			}
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("NCBPS %d/%d, rate %v: metric %d = %v, want %v", p.ncbps, p.nbpsc, p.r, i, got[i], want[i])
			}
		}
	}
	il, err := NewInterleaver(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := il.DepuncturedPositions(nil, CodeRate(0)); err == nil {
		t.Error("DepuncturedPositions accepted an invalid rate")
	}
	il, err = NewInterleaver(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := il.DepuncturedPositions(nil, Rate2_3); err == nil {
		t.Error("DepuncturedPositions accepted NCBPS 16 at rate 2/3 (3 kept bits per period)")
	}
}

// codedPacket is the coded stream of a 1500-byte 54 Mb/s packet's data
// bits, the size the link benchmarks send.
func codedPacket(b *testing.B) []byte {
	in := randBits(rand.New(rand.NewSource(4)), 216*56)
	coded, err := ConvEncode(in)
	if err != nil {
		b.Fatal(err)
	}
	return coded
}

// BenchmarkConvEncodeInto times encoding one 1500-byte packet's data bits.
func BenchmarkConvEncodeInto(b *testing.B) {
	in := randBits(rand.New(rand.NewSource(4)), 216*56)
	dst := make([]byte, 2*len(in))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvEncodeInto(dst, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPunctureInto times puncturing one 1500-byte packet's coded bits
// at each punctured rate.
func BenchmarkPunctureInto(b *testing.B) {
	coded := codedPacket(b)
	dst := make([]byte, len(coded))
	for _, r := range []CodeRate{Rate2_3, Rate3_4} {
		b.Run(r.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PunctureInto(dst, coded, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
