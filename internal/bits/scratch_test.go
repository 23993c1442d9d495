package bits

import (
	"math/rand"
	"reflect"
	"testing"
)

// stale returns a destination with spare capacity and nonzero leftovers,
// standing in for the output of an earlier call on a longer input.
func stale(n int) []byte {
	s := make([]byte, 2*n+8)
	for i := range s {
		s[i] = 0xA5
	}
	return s[:n]
}

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAllocatingFormsMatchInto is the scratch-reuse check: every allocating
// primitive must return exactly what its Into form returns into a dirty
// destination — same values, same error text — and keep the non-nil empty
// result on empty input.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bytesIn := map[string][]byte{"empty": {}, "nil": nil, "one": {0x5A}, "random": make([]byte, 300)}
	rng.Read(bytesIn["random"])
	bitsIn := map[string][]byte{
		"empty":   {},
		"nil":     nil,
		"random":  randomBits(rng, 2400),
		"ragged":  randomBits(rng, 13),
		"non-bit": {0, 1, 0, 2, 1, 0, 1, 1},
	}

	for name, in := range bytesIn {
		got := FromBytes(in)
		want := FromBytesInto(stale(4000), in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FromBytes(%s) = %#v, FromBytesInto = %#v", name, got, want)
		}
		got = AppendFCS(in)
		want = AppendFCSInto(stale(400), in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppendFCS(%s) = %#v, AppendFCSInto = %#v", name, got, want)
		}
	}
	for name, in := range bitsIn {
		got, err := ToBytes(in)
		want, errInto := ToBytesInto(stale(400), in)
		if !reflect.DeepEqual(got, want) || errText(err) != errText(errInto) {
			t.Errorf("ToBytes(%s) = %#v, %v; ToBytesInto = %#v, %v", name, got, err, want, errInto)
		}
		for _, seed := range []byte{0, 1, 0x5D, 0x7F} {
			got := NewScrambler(seed).Scramble(in)
			want := NewScrambler(seed).ScrambleInto(stale(4000), in)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Scramble(seed %#x, %s) differs from ScrambleInto", seed, name)
			}
		}
	}

	// Empty input yields a non-nil empty slice: JSON and golden bytes tell
	// null from [].
	empty, _ := ToBytes(nil)
	for name, out := range map[string][]byte{
		"FromBytes": FromBytes(nil),
		"ToBytes":   empty,
		"Scramble":  NewScrambler(1).Scramble(nil),
	} {
		if out == nil || len(out) != 0 {
			t.Errorf("%s(nil) = %#v, want non-nil empty", name, out)
		}
	}
}
