package coding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The state-major decoder the butterfly replaced, kept verbatim as a
// test-only oracle: for every next state it scatters both outgoing branches
// of every live state, skips -Inf states, and stores a one-byte predecessor
// decision per state per step. The production decoder must reproduce its
// bits and its errors exactly, on any input.

type refBranch struct {
	next uint8 // next state
	outA int8  // +1/-1 antipodal form of generator-A output
	outB int8  // +1/-1 antipodal form of generator-B output
}

// refTrellis holds the two outgoing branches (input bit 0 and 1) per state.
var refTrellis [NumStates][2]refBranch

func init() {
	for s := 0; s < NumStates; s++ {
		for b := uint(0); b <= 1; b++ {
			window := b<<6 | uint(s)
			a := parity(window & GeneratorA)
			bb := parity(window & GeneratorB)
			refTrellis[s][b] = refBranch{
				next: uint8(window >> 1),
				outA: int8(2*int(a) - 1),
				outB: int8(2*int(bb) - 1),
			}
		}
	}
}

// refDecision records the transition that won a trellis state at one step:
// bits 0-5 hold the predecessor state, bit 6 the input bit.
type refDecision uint8

func decodeRef(terminated bool, metrics []float64) ([]byte, error) {
	if len(metrics)%2 != 0 {
		return nil, fmt.Errorf("coding: metric count %d is odd; rate-1/2 code needs pairs", len(metrics))
	}
	steps := len(metrics) / 2
	if steps == 0 {
		return nil, nil
	}
	negInf := math.Inf(-1)
	cur := make([]float64, NumStates)
	next := make([]float64, NumStates)
	cur[0] = 0 // encoder starts in state 0
	for st := 1; st < NumStates; st++ {
		cur[st] = negInf
	}
	decisions := make([]refDecision, steps*NumStates)

	for t := 0; t < steps; t++ {
		mA := metrics[2*t]
		mB := metrics[2*t+1]
		for s := range next {
			next[s] = negInf
		}
		for s := 0; s < NumStates; s++ {
			pm := cur[s]
			if math.IsInf(pm, -1) {
				continue
			}
			for b := 0; b <= 1; b++ {
				br := refTrellis[s][b]
				m := pm + float64(br.outA)*mA + float64(br.outB)*mB
				ns := int(br.next)
				if m > next[ns] {
					next[ns] = m
					decisions[t*NumStates+ns] = refDecision(uint8(s) | uint8(b)<<6)
				}
			}
		}
		cur, next = next, cur
	}

	end := 0
	if !terminated {
		best := cur[0]
		for s := 1; s < NumStates; s++ {
			if cur[s] > best {
				best = cur[s]
				end = s
			}
		}
	}
	if math.IsInf(cur[end], -1) {
		return nil, fmt.Errorf("coding: no surviving path to end state %d", end)
	}

	out := make([]byte, steps)
	state := end
	for t := steps - 1; t >= 0; t-- {
		d := decisions[t*NumStates+state]
		out[t] = byte(d >> 6)
		state = int(d & 0x3F)
	}
	return out, nil
}

// namedKernel is one add-compare-select kernel under test.
type namedKernel struct {
	name string
	fn   acsFunc
}

// hostKernels is every kernel this host can run: the portable one always,
// plus the vector kernels the CPU probe allows.
func hostKernels() []namedKernel {
	return append([]namedKernel{{"generic", acsGeneric}}, vectorKernels()...)
}

// sameDecode reports how the decoder's result for metrics, decoded through
// s with kernel k, differs from the oracle's; "" means identical bits and
// identical error text.
func sameDecode(k acsFunc, terminated bool, s *ViterbiScratch, metrics []float64) string {
	want, wantErr := decodeRef(terminated, metrics)
	got, gotErr := (&Viterbi{Terminated: terminated}).decodeWith(k, s, metrics)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d bits, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("bit %d = %d, oracle %d", i, got[i], want[i])
		}
	}
	return ""
}

// gaussianMetrics is a noisy soft block with the given erasure share.
func gaussianMetrics(rng *rand.Rand, steps int, erased float64) []float64 {
	m := make([]float64, 2*steps)
	for i := range m {
		m[i] = rng.NormFloat64()
		if rng.Float64() < erased {
			m[i] = 0
		}
	}
	return m
}

// tiedMetrics draws from {-1, 0, +1}, so equal path metrics are common and
// the tie-break decides most steps.
func tiedMetrics(rng *rand.Rand, steps int) []float64 {
	m := make([]float64, 2*steps)
	for i := range m {
		m[i] = float64(rng.Intn(3) - 1)
	}
	return m
}

// mixedScaleMetrics is a tie-heavy {-1, 0, +1} block with one metric in
// twenty scaled by 2^50..2^54. The huge terms push path metrics to where
// adding ±1 rounds, so regrouping the additions (pm+(a+b) for pm+a+b, or
// swapping a and b) moves path metrics by an ulp, and the near-ties turn
// that into different survivors.
func mixedScaleMetrics(rng *rand.Rand, steps int) []float64 {
	m := make([]float64, 2*steps)
	for i := range m {
		m[i] = float64(rng.Intn(3) - 1)
		if rng.Intn(20) == 0 {
			m[i] *= math.Ldexp(1, 50+rng.Intn(5))
		}
	}
	return m
}

// hardCodedMetrics encodes random terminated data and converts the coded
// bits with HardMetrics, flipping a few signs.
func hardCodedMetrics(t *testing.T, rng *rand.Rand, steps int) []float64 {
	t.Helper()
	data := randBits(rng, steps)
	for i := max(0, steps-TailBits); i < steps; i++ {
		data[i] = 0
	}
	coded, err := ConvEncode(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := HardMetrics(coded, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if rng.Float64() < 0.05 {
			m[i] = -m[i]
		}
	}
	return m
}

// withValue sets a few random metrics of a soft block to v.
func withValue(rng *rand.Rand, steps int, v float64) []float64 {
	m := gaussianMetrics(rng, steps, 0.1)
	for k := 0; k < 1+rng.Intn(3); k++ {
		m[rng.Intn(len(m))] = v
	}
	return m
}

// TestViterbiMatchesStateMajorReference pins the butterfly decoder, with
// every kernel the host runs, to the state-major oracle, bit for bit and
// error for error: soft, tied, mixed-scale and hard metrics, non-finite
// inputs, every block length up to 7 steps (both final-column parities, and
// states not yet reachable from the start), both termination modes, and
// scratch reused dirty from longer and shorter blocks.
func TestViterbiMatchesStateMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	steps := func() int {
		if rng.Intn(4) == 0 {
			return 1 + rng.Intn(20)
		}
		return 1 + rng.Intn(9000)
	}
	// A NaN metric poisons every candidate at its step, so every state
	// drops to -Inf and no path survives, in either termination mode.
	const noPath = "coding: no surviving path to end state 0"
	type block struct {
		name    string
		metrics []float64
		wantErr string // when set, the exact error in both modes
	}
	var blocks []block
	for i := 0; i < 16; i++ {
		blocks = append(blocks,
			block{"gaussian", gaussianMetrics(rng, steps(), 0.2), ""},
			block{"tied", tiedMetrics(rng, steps()), ""},
			block{"mixed-scale", mixedScaleMetrics(rng, steps()), ""},
			block{"hard", hardCodedMetrics(t, rng, steps()), ""})
	}
	blocks = append(blocks,
		block{"single-step", []float64{0.5, -0.25}, ""},
		block{"all-erased", make([]float64, 2*(40+TailBits)), ""})
	for i := 0; i < 4; i++ {
		blocks = append(blocks,
			block{"nan", withValue(rng, 1+rng.Intn(500), math.NaN()), noPath},
			block{"+inf", withValue(rng, 1+rng.Intn(500), math.Inf(1)), ""},
			block{"-inf", withValue(rng, 1+rng.Intn(500), math.Inf(-1)), ""})
	}
	for n := 1; n <= 7; n++ {
		blocks = append(blocks,
			block{"short-gaussian", gaussianMetrics(rng, n, 0.2), ""},
			block{"short-tied", tiedMetrics(rng, n), ""})
	}

	// Per kernel, one scratch runs through every block, so each decode
	// starts from the previous block's leftovers: longer and shorter alike.
	for _, k := range hostKernels() {
		t.Logf("kernel %s: %d blocks", k.name, len(blocks))
		var scratch ViterbiScratch
		for i, b := range blocks {
			for _, terminated := range []bool{true, false} {
				if diff := sameDecode(k.fn, terminated, &scratch, b.metrics); diff != "" {
					t.Errorf("%s: block %d (%s, %d steps, terminated=%v): %s",
						k.name, i, b.name, len(b.metrics)/2, terminated, diff)
				}
			}
		}
	}
	for i, b := range blocks {
		if b.wantErr == "" {
			continue
		}
		for _, terminated := range []bool{true, false} {
			_, err := (&Viterbi{Terminated: terminated}).Decode(b.metrics)
			if fmt.Sprint(err) != b.wantErr {
				t.Errorf("block %d (%s, terminated=%v): error %v, want %q",
					i, b.name, terminated, err, b.wantErr)
			}
		}
	}
}

// FuzzViterbiMatchesReference decodes the fuzzer's bytes as little-endian
// float64 metric pairs (at most maxFuzzSteps steps) with the decoder under
// every kernel the host runs and with the oracle, in both termination
// modes, and requires identical results.
func FuzzViterbiMatchesReference(f *testing.F) {
	const maxFuzzSteps = 2000
	seed := func(m []float64) []byte {
		b := make([]byte, 8*len(m))
		for i, v := range m {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	f.Add(seed(gaussianMetrics(rng, 50, 0.2)))
	f.Add(seed(tiedMetrics(rng, 50)))
	f.Add(seed(mixedScaleMetrics(rng, 50)))
	f.Add(seed([]float64{1, math.NaN(), -1, 1}))
	f.Add(seed([]float64{math.Inf(1), -1, math.Inf(-1), 1, 0.5, 0.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 2*maxFuzzSteps)
		m := make([]float64, n)
		for i := range m {
			m[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, k := range hostKernels() {
			var scratch ViterbiScratch
			for _, terminated := range []bool{true, false} {
				if diff := sameDecode(k.fn, terminated, &scratch, m); diff != "" {
					t.Errorf("%s: %d metrics, terminated=%v: %s", k.name, n, terminated, diff)
				}
			}
		}
	})
}

// BenchmarkACSKernels times one add-compare-select pass per kernel the host
// runs, over the block BenchmarkViterbiDecodeInto1KBSoft decodes: 1 KB of
// terminated data as noisy soft metrics with ~10% erasures.
func BenchmarkACSKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 8192+TailBits)
	for i := range data[:8192] {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := ConvEncode(data)
	if err != nil {
		b.Fatal(err)
	}
	metrics := make([]float64, len(coded))
	for i, c := range coded {
		metrics[i] = float64(2*int(c)-1) + 0.8*rng.NormFloat64()
		if rng.Float64() < 0.1 {
			metrics[i] = 0
		}
	}
	decisions := make([]uint64, len(metrics)/2)
	for _, k := range hostKernels() {
		b.Run(k.name, func(b *testing.B) {
			var cur, next [NumStates]float64
			for b.Loop() {
				cur[0] = 0
				for st := 1; st < NumStates; st++ {
					cur[st] = negInf
				}
				k.fn(&cur, &next, metrics, decisions)
			}
		})
	}
}
