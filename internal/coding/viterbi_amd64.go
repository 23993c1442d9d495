package coding

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches; it is probed once at package init.
var hasAVX2 = probeAVX2()

// acsKernel is the AVX2 kernel when the CPU supports it. The choice depends
// on the CPU alone: both kernels produce the same bits.
var acsKernel acsFunc = acsGeneric

func init() {
	if hasAVX2 {
		acsKernel = acsAVX2
	}
}

// acsAVX2 is acsGeneric with four butterflies per 256-bit vector, so a
// trellis step is eight vector groups. Every lane runs the scalar kernel's
// IEEE operations in the same order; see viterbi_amd64.s.
//
//go:noescape
func acsAVX2(cur, next *[NumStates]float64, metrics []float64, decisions []uint64)

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register XCR0.
func xgetbv() (eax, edx uint32)

func probeAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		xmmYmmOS = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XGETBV is defined only once OSXSAVE is known to be set.
	if xcr0, _ := xgetbv(); xcr0&xmmYmmOS != xmmYmmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
