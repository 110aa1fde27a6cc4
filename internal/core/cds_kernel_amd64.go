package core

// maxReductionAVX2 evaluates (f[i]·dz + z[i]·df) − tfz[i] for i in
// [0, n), n a positive multiple of 8, and returns the largest value,
// an i attaining it, and tied: whether more than one i attains it (a
// −Inf maximum and a NaN value also report tied). When tied is false,
// idx is the only such i. Each value has the bits the scalar Go
// expression gives: the same four operations, each rounded, no FMA.
//
//go:noescape
func maxReductionAVX2(f, z, tfz *float64, n int, dz, df float64) (best float64, idx int, tied bool)

// passScanAVX2 compares dc[i] against t for i in [0, n), n a positive
// multiple of 16, in blocks of 16. It returns the start of the first
// block holding a cell with !(dc[i] < t) and that block's hit mask,
// bit j for cell at+j; (n, 0) when no block holds one.
//
//go:noescape
func passScanAVX2(dc *float64, n int, t float64) (at int, mask uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
