package bits

// Scrambler implements the IEEE 802.11 frame-synchronous data scrambler
// with generator polynomial S(x) = x^7 + x^4 + 1 (17.3.5.4).
//
// The scrambler is self-inverse: running the same seed over scrambled data
// descrambles it.
type Scrambler struct {
	state byte // 7-bit shift register, bit 0 = x^1 stage
}

// NewScrambler returns a scrambler initialized with the given 7-bit seed.
// A zero seed would emit a constant zero sequence, so it is replaced by the
// standard's commonly used all-ones state.
func NewScrambler(seed byte) *Scrambler {
	seed &= 0x7F
	if seed == 0 {
		seed = 0x7F
	}
	return &Scrambler{state: seed}
}

// Next returns the next scrambling-sequence bit and advances the register.
func (s *Scrambler) Next() byte {
	// Feedback is x^7 XOR x^4: bits 6 and 3 of the register.
	fb := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | fb) & 0x7F
	return fb
}

// scramblerCycle is the period of the scrambling sequence. x^7 + x^4 + 1
// is primitive, so the register is maximal-length: every nonzero state lies
// on one cycle of 127 states.
const scramblerCycle = 127

// scramblerPeriod tabulates that cycle, recorded by stepping Next: state[i]
// is the register at position i, seq[i] the bit Next emits from it, and pos
// the inverse of state.
var scramblerPeriod = func() (t struct {
	seq   [scramblerCycle]byte
	state [scramblerCycle]byte
	pos   [0x80]uint8
}) {
	s := Scrambler{state: 1}
	for i := range t.seq {
		t.state[i] = s.state
		t.pos[s.state] = uint8(i)
		t.seq[i] = s.Next()
	}
	return t
}()

// Scramble XORs the scrambling sequence over in and returns the result as a
// new slice. in must be a bit slice (elements 0 or 1).
func (s *Scrambler) Scramble(in []byte) []byte {
	return s.ScrambleInto([]byte{}, in)
}

// Sequence returns the next n scrambling bits as a bit slice. It is used to
// generate the 127-bit pilot polarity sequence.
func (s *Scrambler) Sequence(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
