package channel

import (
	"math/rand"
	"reflect"
	"testing"
)

func staleSamples(n int) []complex128 {
	s := make([]complex128, 2*n+8)
	for i := range s {
		s[i] = complex(7, 7)
	}
	return s[:n]
}

// TestAllocatingFormsMatchInto is the scratch-reuse check: Taps,
// FrequencyResponse, Convolve and Apply must return exactly what their
// Into/From/To forms return into dirty destinations, consuming the rng
// identically, and Convolve/Apply keep the non-nil empty result on empty
// input.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	random := make([]complex128, 960)
	for i := range random {
		random[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	samples := map[string][]complex128{"empty": {}, "nil": nil, "one": random[:1], "random": random}
	for _, cfg := range []TDLConfig{
		{NumTaps: 1},
		{NumTaps: 4, DelaySpread: 1.5, DopplerHz: EffectiveIndoorDopplerHz},
		{NumTaps: 16, DelaySpread: 3, DopplerHz: WalkingDopplerHz, NumSinusoids: 8},
	} {
		ch, err := NewTDL(cfg, rand.New(rand.NewSource(int64(cfg.NumTaps))))
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{0, 0.0125, 3} {
			taps := ch.Taps(at)
			if want := ch.TapsInto(staleSamples(1), at); !reflect.DeepEqual(taps, want) {
				t.Errorf("%+v t=%v: Taps = %v, TapsInto = %v", cfg, at, taps, want)
			}
			if got, want := ch.FrequencyResponse(at), FrequencyResponseFrom(ch.TapsInto(staleSamples(2), at)); got != want {
				t.Errorf("%+v t=%v: FrequencyResponse differs from FrequencyResponseFrom(TapsInto)", cfg, at)
			}
			for name, in := range samples {
				if got, want := Convolve(in, taps), ConvolveInto(staleSamples(3), in, taps); !reflect.DeepEqual(got, want) {
					t.Errorf("%+v t=%v %s: Convolve differs from ConvolveInto", cfg, at, name)
				}
				for _, noiseVar := range []float64{0, 0.1} {
					got := ch.Apply(in, at, noiseVar, rand.New(rand.NewSource(5)))
					want := ApplyTo(staleSamples(3), in, ch.TapsInto(nil, at), noiseVar, rand.New(rand.NewSource(5)))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%+v t=%v %s noise %v: Apply differs from ApplyTo", cfg, at, name, noiseVar)
					}
				}
			}
		}
		if out := Convolve(nil, ch.Taps(0)); out == nil {
			t.Errorf("Convolve(nil) = nil, want non-nil empty")
		}
		if out := ch.Apply(nil, 0, 0.1, rand.New(rand.NewSource(5))); out == nil {
			t.Errorf("Apply(nil) = nil, want non-nil empty")
		}
	}
}
