package modulation

import (
	"math/rand"
	"reflect"
	"testing"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAllocatingFormsMatchInto is the scratch-reuse check: MapBits must
// return exactly what MapBitsInto returns into a dirty destination — same
// points, same error text — and keep the non-nil empty result on empty
// input.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	random := make([]byte, 288*6)
	for i := range random {
		random[i] = byte(rng.Intn(2))
	}
	inputs := map[string][]byte{
		"empty":   {},
		"nil":     nil,
		"random":  random,
		"ragged":  random[:7],
		"non-bit": {1, 0, 2, 1, 0, 0, 1, 1, 0, 1, 0, 0},
	}
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64, Scheme(0), Scheme(7)} {
		for name, in := range inputs {
			dirty := make([]complex128, 4000)
			for i := range dirty {
				dirty[i] = complex(3, -3)
			}
			got, err := s.MapBits(in)
			want, errInto := s.MapBitsInto(dirty[:1], in)
			if !reflect.DeepEqual(got, want) || errText(err) != errText(errInto) {
				t.Errorf("%v/%s: MapBits = %#v, %v; MapBitsInto = %#v, %v", s, name, got, err, want, errInto)
			}
		}
		if s.Valid() {
			if out, _ := s.MapBits(nil); out == nil {
				t.Errorf("%v: MapBits(nil) = nil, want non-nil empty", s)
			}
		}
	}
}
