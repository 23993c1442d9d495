package coding

// vectorKernels is the AVX2 kernel when the CPU probe allows it.
func vectorKernels() []namedKernel {
	if !hasAVX2 {
		return nil
	}
	return []namedKernel{{"avx2", acsAVX2}}
}
