package coding

import (
	"math/rand"
	"reflect"
	"testing"
)

// staleOf returns a destination with spare capacity and nonzero leftovers,
// standing in for the output of an earlier call on a longer input.
func staleOf[T any](n int, v T) []T {
	s := make([]T, 2*n+8)
	for i := range s {
		s[i] = v
	}
	return s[:n]
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameResult[T any](t *testing.T, what string, got []T, err error, want []T, errInto error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || errText(err) != errText(errInto) {
		t.Errorf("%s: allocating form = %#v, %v; Into form = %#v, %v", what, got, err, want, errInto)
	}
}

// TestAllocatingFormsMatchInto is the scratch-reuse check: every allocating
// primitive must return exactly what its Into form returns into a dirty
// destination — same values, same error text — and keep the non-nil empty
// result on empty input.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randBits := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	randMetrics := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	bitsIn := map[string][]byte{
		"empty":   {},
		"nil":     nil,
		"random":  randBits(2592),
		"ragged":  randBits(7),
		"non-bit": {0, 1, 3, 0},
	}
	metricsIn := map[string][]float64{
		"empty":  {},
		"nil":    nil,
		"random": randMetrics(2592),
		"ragged": randMetrics(7),
	}
	rates := []CodeRate{Rate1_2, Rate2_3, Rate3_4, CodeRate(0), CodeRate(9)}

	for name, in := range bitsIn {
		got, err := ConvEncode(in)
		want, errInto := ConvEncodeInto(staleOf[byte](8000, 7), in)
		sameResult(t, "ConvEncode/"+name, got, err, want, errInto)
		for _, r := range rates {
			got, err := Puncture(in, r)
			want, errInto := PunctureInto(staleOf[byte](8000, 7), in, r)
			sameResult(t, "Puncture/"+r.String()+"/"+name, got, err, want, errInto)
		}
	}
	for name, in := range metricsIn {
		for _, r := range rates {
			got, err := DepunctureMetrics(in, r)
			want, errInto := DepunctureMetricsInto(staleOf(8000, 9.5), in, r)
			sameResult(t, "DepunctureMetrics/"+r.String()+"/"+name, got, err, want, errInto)
		}
	}
	for _, p := range [][2]int{{48, 1}, {96, 2}, {192, 4}, {288, 6}} {
		il, err := NewInterleaver(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		for name, in := range bitsIn {
			got, err := Interleave(il, in)
			want, errInto := InterleaveInto(il, staleOf[byte](8000, 7), in)
			sameResult(t, "Interleave/"+name, got, err, want, errInto)
			got, err = Deinterleave(il, in)
			want, errInto = DeinterleaveInto(il, staleOf[byte](8000, 7), in)
			sameResult(t, "Deinterleave/"+name, got, err, want, errInto)
		}
		for name, in := range metricsIn {
			got, err := Deinterleave(il, in)
			want, errInto := DeinterleaveInto(il, staleOf(8000, 9.5), in)
			sameResult(t, "Deinterleave(metrics)/"+name, got, err, want, errInto)
		}
	}

	// Empty input yields a non-nil empty slice: JSON and golden bytes tell
	// null from [].
	il, _ := NewInterleaver(48, 1)
	enc, _ := ConvEncode(nil)
	inter, _ := Interleave(il, []byte(nil))
	nils := map[string]bool{"ConvEncode": enc == nil, "Interleave": inter == nil}
	for _, r := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		p, _ := Puncture(nil, r)
		d, _ := DepunctureMetrics(nil, r)
		nils["Puncture "+r.String()] = p == nil
		nils["DepunctureMetrics "+r.String()] = d == nil
	}
	for name, isNil := range nils {
		if isNil {
			t.Errorf("%s(nil) = nil, want non-nil empty", name)
		}
	}
}
