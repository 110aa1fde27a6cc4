//go:build !amd64

package core

// haveAVX2 is false off amd64: refresh always runs the scalar loop.
func haveAVX2() bool { return false }

// maxReductionAVX2 is never called off amd64, where the member arrays
// are never built.
func maxReductionAVX2(f, z, tfz *float64, n int, dz, df float64) (best float64, idx int) {
	panic("core: AVX2 member scan called on a non-amd64 build")
}
