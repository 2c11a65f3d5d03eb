package tensor

// kernelBodies calls f once for each body of the leaves this machine can
// run: "go" with the assembly switched off, then "avx2" if the processor
// has it. This is the only place useAVX and useAVX512 are ever written
// after initialisation, and it exists in test binaries only.
func kernelBodies(f func(body string)) {
	had, had512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = had, had512 }()
	useAVX, useAVX512 = false, false
	f("go")
	if had {
		useAVX = true
		f("avx2")
	}
}

// tileBodies is kernelBodies, then "avx512" if the processor has it: for
// the leaves that have an AVX-512 body, mulAddTile and the kernels that
// call it, MatMul and MatMulTransA. Every other leaf runs its AVX2 body
// there, which kernelBodies already ran.
func tileBodies(f func(body string)) {
	kernelBodies(f)
	if useAVX512 {
		f("avx512")
	}
}
