//go:build !amd64

package coding

// vectorKernels is empty: only amd64 has a vector kernel.
func vectorKernels() []namedKernel { return nil }
