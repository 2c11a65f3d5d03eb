package tensor

// kernelBodies calls f once for each body of the matmul and stream leaves
// this machine can run: "go" with the assembly switched off, then "asm" if the
// processor has it. This is the only place useAVX is ever written after
// initialisation, and it exists in test binaries only.
func kernelBodies(f func(body string)) {
	had := useAVX
	defer func() { useAVX = had }()
	useAVX = false
	f("go")
	if had {
		useAVX = true
		f("asm")
	}
}
