//go:build !amd64

package core

// haveAVX2 is false off amd64: refresh and pick always run their
// scalar loops.
func haveAVX2() bool { return false }

// maxReductionAVX2 is never called off amd64, where the member arrays
// are never built.
func maxReductionAVX2(f, z, tfz *float64, n int, dz, df float64) (best float64, idx int) {
	panic("core: AVX2 member scan called on a non-amd64 build")
}

// passScanAVX2 is never called off amd64, where pick never takes the
// pass kernel.
func passScanAVX2(dc *float64, n int, t float64) (at int, mask uint64) {
	panic("core: AVX2 pass scan called on a non-amd64 build")
}
