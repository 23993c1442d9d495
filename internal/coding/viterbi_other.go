//go:build !amd64

package coding

// acsKernel is the portable kernel: only amd64 has a vector one.
var acsKernel acsFunc = acsGeneric
