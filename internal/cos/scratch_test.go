package cos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cos/internal/channel"
	"cos/internal/modulation"
	"cos/internal/ofdm"
)

func staleOf[T any](n int, v T) []T {
	s := make([]T, 2*n+8)
	for i := range s {
		s[i] = v
	}
	return s[:n]
}

// staleMask returns a mask whose rows are all true, with spare rows beyond
// its length: the leftovers of an earlier, longer packet.
func staleMask(rows int) [][]bool {
	m := make([][]bool, 2*rows+4)
	for i := range m {
		m[i] = staleOf(ofdm.NumData, true)
	}
	return m[:rows]
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameResult(t *testing.T, what string, got any, err error, want any, errInto error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || errText(err) != errText(errInto) {
		t.Errorf("%s: allocating form = %#v, %v; Into form = %#v, %v", what, got, err, want, errInto)
	}
}

func randomControl(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

// TestAllocatingFormsMatchInto is the scratch-reuse check for the CoS
// embed/extract chain: every allocating step must return exactly what its
// Into form returns into a dirty destination — same values, same error
// text — and keep its nil-ness on empty input.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ks := []int{0, 1, 4, 16, 17}

	t.Run("Intervals", func(t *testing.T) {
		bitsIn := map[string][]byte{
			"empty":   {},
			"nil":     nil,
			"random":  randomControl(rng, 480),
			"ragged":  randomControl(rng, 7),
			"non-bit": {0, 1, 0, 2, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1},
		}
		for _, k := range ks {
			for name, in := range bitsIn {
				got, err := EncodeIntervals(in, k)
				want, errInto := EncodeIntervalsInto(staleOf(1000, -3), in, k)
				sameResult(t, fmt.Sprintf("EncodeIntervals k=%d %s", k, name), got, err, want, errInto)
			}
			random := make([]int, 60)
			for i := range random {
				random[i] = rng.Intn(1 << min(k, 16))
			}
			for name, in := range map[string][]int{
				"empty": {}, "nil": nil, "random": random,
				"negative": {1, -1}, "too-large": {0, 1 << k},
			} {
				got, err := DecodeIntervals(in, k)
				want, errInto := DecodeIntervalsInto(staleOf[byte](2000, 9), in, k)
				sameResult(t, fmt.Sprintf("DecodeIntervals k=%d %s", k, name), got, err, want, errInto)
			}
		}
	})

	t.Run("Layout", func(t *testing.T) {
		intervals := make([]int, 20)
		for i := range intervals {
			intervals[i] = rng.Intn(16)
		}
		ctrl := []int{9, 10, 11, 12, 13, 14, 15, 16}
		cases := []struct {
			name       string
			intervals  []int
			numSymbols int
			ctrlSCs    []int
		}{
			{"random", intervals, 60, ctrl},
			{"empty", nil, 1, ctrl},
			{"one-subcarrier", intervals, 400, []int{47}},
			{"no-subcarriers", intervals, 60, nil},
			{"out-of-range", intervals, 60, []int{3, 48}},
			{"unsorted", intervals, 60, []int{5, 4}},
			{"no-symbols", intervals, 0, ctrl},
			{"negative", []int{2, -1}, 60, ctrl},
			{"too-long", intervals, 2, ctrl},
		}
		for _, c := range cases {
			got, err := Layout(c.intervals, c.numSymbols, c.ctrlSCs)
			want, errInto := LayoutInto(staleOf(100, Pos{Sym: 5, SC: 5}), c.intervals, c.numSymbols, c.ctrlSCs)
			sameResult(t, "Layout "+c.name, got, err, want, errInto)
		}
	})

	t.Run("Silences", func(t *testing.T) {
		ctrl := []int{4, 12, 20, 28, 40, 44}
		positions, err := Layout([]int{3, 0, 15, 7, 9}, 12, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		silenceFree := NewMask(12)
		cases := []struct {
			name      string
			rows      int
			positions []Pos
		}{
			{"layout", 12, positions},
			{"none", 12, nil},
			{"zero-symbols", 0, nil},
			{"symbol-out-of-range", 12, []Pos{{Sym: 1, SC: 1}, {Sym: 12, SC: 0}}},
			{"subcarrier-out-of-range", 12, []Pos{{Sym: 0, SC: ofdm.NumData}}},
		}
		for _, c := range cases {
			g1 := ofdm.NewGrid(c.rows)
			for s := 0; s < c.rows; s++ {
				row, _ := g1.Symbol(s)
				for i := range row {
					row[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			g2 := g1.Clone()
			got, err := InsertSilences(g1, c.positions)
			want, errInto := InsertSilencesInto(staleMask(20), g2, c.positions)
			sameResult(t, "InsertSilences "+c.name, got, err, want, errInto)
			if !reflect.DeepEqual(g1, g2) {
				t.Errorf("InsertSilences %s: grids differ after insertion", c.name)
			}
			if err == nil && got == nil {
				t.Errorf("InsertSilences %s: nil mask, want non-nil", c.name)
			}
		}

		layoutMask, _ := InsertSilences(ofdm.NewGrid(12), positions)
		short := NewMask(3)
		short[1] = short[1][:10]
		masks := map[string][][]bool{
			"layout": layoutMask, "silence-free": silenceFree, "nil": nil, "short-row": short,
		}
		for name, mask := range masks {
			for _, ctrlSCs := range [][]int{ctrl, {4}, nil, {44, 4}} {
				what := fmt.Sprintf("ExtractIntervals %s %v", name, ctrlSCs)
				got, err := ExtractIntervals(mask, ctrlSCs)
				want, errInto := ExtractIntervalsInto(nil, mask, ctrlSCs)
				sameResult(t, what, got, err, want, errInto)
				// Into a dirty destination a silence-free mask yields an
				// empty non-nil slice rather than nil (documented).
				dirty, errDirty := ExtractIntervalsInto(staleOf(50, 8), mask, ctrlSCs)
				if len(got) != len(dirty) || (len(got) > 0 && !reflect.DeepEqual(got, dirty)) || errText(err) != errText(errDirty) {
					t.Errorf("%s: allocating form = %#v, %v; dirty Into = %#v, %v", what, got, err, dirty, errDirty)
				}
			}
		}
		if got, err := ExtractIntervals(silenceFree, ctrl); got != nil || err != nil {
			t.Errorf("ExtractIntervals(silence-free) = %#v, %v; want nil, nil", got, err)
		}
	})

	t.Run("Framing", func(t *testing.T) {
		for name, in := range map[string][]byte{
			"empty":    {},
			"nil":      nil,
			"random":   randomControl(rng, 100),
			"max":      randomControl(rng, MaxFramedPayloadBits),
			"too-long": randomControl(rng, MaxFramedPayloadBits+1),
			"non-bit":  {1, 0, 5},
		} {
			got, err := FrameControl(in)
			want, errInto := FrameControlInto(staleOf[byte](400, 9), in)
			sameResult(t, "FrameControl "+name, got, err, want, errInto)
			for _, k := range ks {
				got, err := PadToInterval(in, k)
				want, errInto := PadToIntervalInto(staleOf[byte](400, 9), in, k)
				sameResult(t, fmt.Sprintf("PadToInterval k=%d %s", k, name), got, err, want, errInto)
			}
		}
	})

	t.Run("DetectMask", func(t *testing.T) {
		ctrl := []int{9, 10, 11, 12, 13, 14, 15, 16}
		r := runCoS(t, 24, 12, ctrl, 40, 301, channel.PositionB)
		for _, d := range []Detector{{}, {Scheme: modulation.QAM16, ThresholdFactor: 1.5}, {FixedThreshold: 0.3}} {
			for _, ctrlSCs := range [][]int{ctrl, {0, 47}, nil, {48}, {10, 9}} {
				got, err := d.DetectMask(r.fe, ctrlSCs)
				want, errInto := d.DetectMaskInto(staleMask(r.fe.NumSymbols()+5), r.fe, ctrlSCs)
				sameResult(t, fmt.Sprintf("DetectMask %+v %v", d, ctrlSCs), got, err, want, errInto)
			}
		}
	})

	// Empty input yields a non-nil empty result: JSON and golden bytes tell
	// null from [].
	enc, _ := EncodeIntervals(nil, 4)
	dec, _ := DecodeIntervals(nil, 4)
	pad, _ := PadToInterval(nil, 4)
	sil, _ := InsertSilences(ofdm.NewGrid(0), nil)
	for name, isNil := range map[string]bool{
		"EncodeIntervals": enc == nil,
		"DecodeIntervals": dec == nil,
		"PadToInterval":   pad == nil,
		"InsertSilences":  sil == nil,
		"NewMask(0)":      NewMask(0) == nil,
	} {
		if isNil {
			t.Errorf("%s on empty input = nil, want non-nil empty", name)
		}
	}
}
