package tensor

// kernelBodies calls f once for each body of the matmul and stream leaves
// this machine can run: "go" with the assembly switched off, then "avx2"
// if the processor has it, then "avx512" (mulAddTile's AVX-512 body, every
// other leaf on AVX2) if it has that too. This is the only place useAVX
// and useAVX512 are ever written after initialisation, and it exists in
// test binaries only.
func kernelBodies(f func(body string)) {
	had, had512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = had, had512 }()
	useAVX, useAVX512 = false, false
	f("go")
	if had {
		useAVX = true
		f("avx2")
	}
	if had512 {
		useAVX512 = true
		f("avx512")
	}
}
