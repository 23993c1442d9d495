package coding

import (
	"fmt"
	"math"
	"time"

	"cos/internal/obs"
)

// Decoder metrics: the EVD erasure load (zero metrics cover both silence
// erasures and punctured positions) and the end-to-end decode latency,
// traceback included.
var (
	mDecodes = obs.Default().Counter("coding_viterbi_decodes_total",
		"Viterbi decode calls.")
	mDecodedBits = obs.Default().Counter("coding_viterbi_bits_total",
		"Information bits produced by the Viterbi decoder.")
	mErasedMetrics = obs.Default().Counter("coding_viterbi_erased_metrics_total",
		"Zero (erased) input metrics seen by the decoder: silence erasures plus punctured positions.")
	mDecodeSeconds = obs.Default().Histogram("coding_viterbi_decode_seconds",
		"Viterbi decode latency including traceback.", nil)
)

// Viterbi decodes the 802.11a rate-1/2 convolutional code from soft bit
// metrics, implementing the paper's erasure Viterbi decoding (EVD).
//
// The input is one metric per mother-code bit (so len(metrics) must be even:
// A and B generator outputs alternate). Each metric is an LLR-style value:
// positive favors bit 1, negative favors bit 0, and exactly zero means the
// bit is erased (silence symbol or punctured position) and contributes
// nothing to any path — precisely Eq. (7) of the paper.
//
// The decoder maximizes sum over coded bits of metric * (2*bit - 1) with a
// full traceback over the whole block.
type Viterbi struct {
	// Terminated selects terminated-trellis decoding: the encoder is assumed
	// to have been flushed with TailBits zeros, so the survivor ending in
	// state 0 is chosen. When false, the best-metric end state is used.
	Terminated bool
}

// ViterbiScratch holds the decoder's working storage — the two path-metric
// columns, one packed uint64 of survivor decisions per trellis step (bit ns
// set when next state ns was reached from its odd predecessor), and the
// output bits — so repeated decodes reuse one arena. The zero value is ready
// to use; the decision and output slices grow on demand and are retained
// between calls. A scratch must not be shared across concurrent decodes, and
// the bits returned by DecodeInto are valid only until the next decode with
// the same scratch.
type ViterbiScratch struct {
	cur, next [NumStates]float64
	decisions []uint64
	out       []byte
}

// Decode returns the maximum-likelihood information bits for the given
// metrics. The returned slice has len(metrics)/2 bits, including any tail
// bits the encoder appended.
func (v *Viterbi) Decode(metrics []float64) ([]byte, error) {
	return v.DecodeInto(nil, metrics)
}

// DecodeInto is Decode using s as working storage; the returned bits alias
// s and are valid until the next decode with the same scratch. A nil s
// decodes into fresh storage, making DecodeInto(nil, m) identical to
// Decode(m).
func (v *Viterbi) DecodeInto(s *ViterbiScratch, metrics []float64) ([]byte, error) {
	return v.decodeWith(acsKernel, s, metrics)
}

// decodeWith is DecodeInto with the add-compare-select kernel passed in, so
// tests can hold every kernel the host runs to the same oracle.
func (v *Viterbi) decodeWith(kernel acsFunc, s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if len(metrics)%2 != 0 {
		return nil, fmt.Errorf("coding: metric count %d is odd; rate-1/2 code needs pairs", len(metrics))
	}
	steps := len(metrics) / 2
	if steps == 0 {
		return nil, nil
	}
	// Metrics live in this wrapper, not in decode: values held across the
	// trellis loop (the timer, the erasure count) cost registers the hot
	// loop needs, a measured ~5% on a 1 KB decode.
	start := time.Now()
	erased := 0
	for _, m := range metrics {
		// Branchless count: erasure positions look random to the branch
		// predictor, and a mispredicting loop over ~16k metrics is
		// measurable next to the decode itself.
		inc := 0
		if m == 0 {
			inc = 1
		}
		erased += inc
	}
	out, err := v.decode(kernel, s, metrics)
	if err != nil {
		return nil, err
	}
	mDecodes.Inc()
	mDecodedBits.Add(uint64(steps))
	mErasedMetrics.Add(uint64(erased))
	mDecodeSeconds.ObserveSince(start)
	return out, nil
}

// negInf is the path metric of an unreachable state.
var negInf = math.Inf(-1)

// The trellis is the encoder's shift register: input bit b moves state s to
// b<<5 | s>>1. So the predecessors of next state ns are exactly
// p0 = 2(ns&31) and p0+1, and the input bit is ns>>5: next states j and
// j+32 share the pair (2j, 2j+1), a butterfly. Both generators tap the
// newest and the oldest register bit, so of a butterfly's four branches,
// 2j->j and 2j+1->j+32 carry the same antipodal outputs and the other two
// carry their negation.
//
// signA[j] and signB[j] hold the ±1 outputs of generator A and generator B
// on branch 2j->j, computed once at package init; the code is fixed by the
// standard. The AVX2 kernel loads them four at a time.
var signA, signB [NumStates / 2]float64

func init() {
	for j := range signA {
		window := uint(2 * j) // input bit 0, register 2j
		signA[j] = float64(2*int(parity(window&GeneratorA)) - 1)
		signB[j] = float64(2*int(parity(window&GeneratorB)) - 1)
	}
}

// acsFunc is the add-compare-select pass over a whole block: for each step t
// it reads the path metrics in cur and the metric pair metrics[2t:2t+2],
// writes the next column into next and the step's 64 survivor decisions
// into decisions[t] (bit ns set when p0+1 won ns), then swaps the roles of
// cur and next. So after an odd number of steps the final column is in next,
// after an even number in cur. len(metrics) must be 2*len(decisions).
//
// acsGeneric is the portable kernel; acsKernel, set once per architecture
// from what the CPU supports, is the one DecodeInto runs.
type acsFunc func(cur, next *[NumStates]float64, metrics []float64, decisions []uint64)

// decode runs the add-compare-select kernel over the block, then picks the
// terminal state and traces back through the packed decisions, re-deriving
// every predecessor from the state alone.
func (v *Viterbi) decode(kernel acsFunc, s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if s == nil {
		s = &ViterbiScratch{}
	}
	steps := len(metrics) / 2
	s.cur[0] = 0 // encoder starts in state 0
	for st := 1; st < NumStates; st++ {
		s.cur[st] = negInf
	}
	if cap(s.decisions) < steps {
		s.decisions = make([]uint64, steps)
	}
	decisions := s.decisions[:steps]
	kernel(&s.cur, &s.next, metrics[:2*steps], decisions)
	cur := &s.cur
	if steps%2 == 1 {
		cur = &s.next
	}

	// Pick the terminal state.
	end := 0
	if !v.Terminated {
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

	s.out = growBytes(s.out, steps)
	out := s.out
	state := uint(end)
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		state = 2*(state&31) + uint(decisions[t]>>state&1)
	}
	return out, nil
}

// acsGeneric is the portable kernel: the add-compare-select once per
// butterfly. Its numerics are pinned by the goldens, and every other kernel
// must reproduce them bit for bit; changing them is a versioned numerics
// change with a deliberate golden re-pin:
//   - each candidate is pm + outA*mA + outB*mB, added in that order, with
//     outA*mA and outB*mB formed by multiplying with the ±1 signs. The
//     negated branches subtract those products, which IEEE 754 defines as
//     adding their negation, so the rounding is the same;
//   - the comparison is strict, so p0 wins a tie;
//   - a -Inf or NaN candidate from p0 is clamped to -Inf, and one from
//     p0+1 cannot pass the strict comparison, so unreachable states stay
//     -Inf and NaN never enters a path metric.
func acsGeneric(cur, next *[NumStates]float64, metrics []float64, decisions []uint64) {
	for t := range decisions {
		mA := metrics[2*t]
		mB := metrics[2*t+1]
		var d uint64
		for j := 0; j < NumStates/2; j++ {
			pm0, pm1 := cur[2*j], cur[2*j+1]
			a, b := signA[j]*mA, signB[j]*mB // branch 2j->j
			lo, dlo := acs(pm0+a+b, pm1-a-b)
			hi, dhi := acs(pm0-a-b, pm1+a+b)
			next[j], next[j+NumStates/2] = lo, hi
			d |= dlo<<j | dhi<<(j+NumStates/2)
		}
		decisions[t] = d
		cur, next = next, cur
	}
}

// acs selects the survivor of candidates m0 (from p0) and m1 (from p0+1),
// returning its metric and 1 when m1 won. The metric is picked with a mask
// rather than a branch: on noisy metrics the winner is unpredictable, and
// a mispredicted branch per state costs more than the whole ACS.
func acs(m0, m1 float64) (float64, uint64) {
	if !(m0 > negInf) {
		m0 = negInf
	}
	var bit uint64
	if m1 > m0 {
		bit = 1
	}
	w0, w1 := math.Float64bits(m0), math.Float64bits(m1)
	return math.Float64frombits(w0 ^ (w0^w1)&-bit), bit
}

// HardMetrics converts hard bits into antipodal metrics of the given
// confidence (use 1.0 for unit confidence). It is a convenience for tests
// and hard-decision baselines. Erasures can be injected afterwards by
// zeroing entries.
func HardMetrics(bits []byte, confidence float64) ([]float64, error) {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("coding: element %d = %d is not a bit", i, b)
		}
		out[i] = confidence * float64(2*int(b)-1)
	}
	return out, nil
}
