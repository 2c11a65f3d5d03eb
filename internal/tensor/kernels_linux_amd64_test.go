package tensor

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// TestProbesMatchCPUInfo holds the two CPUID probes to what the kernel
// reports in /proc/cpuinfo, which lists a feature only where the
// operating system also saves its registers: hasAVX2 to avx, avx2 and
// f16c, hasAVX512 to avx512f.
func TestProbesMatchCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for line := range strings.Lines(string(info)) {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	has := func(f string) bool { return slices.Contains(flags, f) }
	if got, want := hasAVX2(), has("avx") && has("avx2") && has("f16c"); got != want {
		t.Errorf("hasAVX2() = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := hasAVX512(), has("avx512f"); got != want {
		t.Errorf("hasAVX512() = %v, /proc/cpuinfo says %v", got, want)
	}
}

// Canaries catch a stray store; a stray load only shows when the memory
// next to a slice is not there. guardedArea is a run of pages with an
// unmapped page on each side, and it hands out slices flush against
// either of them, so a vector load that runs past an operand faults.
type guardedArea struct{ data []byte }

func newGuardedArea(t *testing.T, bytes int) guardedArea {
	page := syscall.Getpagesize()
	size := (bytes+page-1)/page*page + 2*page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	for _, guard := range [][]byte{mem[:page], mem[size-page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return guardedArea{mem[page : size-page]}
}

// floats returns n floats that end where the area ends, or start where it
// starts.
func (g guardedArea) floats(n int, atEnd bool) []float32 {
	if n == 0 {
		return nil
	}
	start := 0
	if atEnd {
		start = len(g.data) - 4*n
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&g.data[start])), n)
}

func TestAssemblyBodiesStayInsideTheirOperands(t *testing.T) {
	if !useAVX && !useAVX512 {
		t.Skip("no AVX2 on this machine: the Go bodies are the only bodies")
	}
	const maxN = 70
	const maxM = 9 // two four-row tiles, and one row after them
	areas := [3]guardedArea{newGuardedArea(t, 4*maxM*maxN), newGuardedArea(t, 4*maxM*maxN), newGuardedArea(t, 4*maxN*maxN)}
	rng := rand.New(rand.NewSource(31))
	// run calls leaf on operands of the given lengths under the Go body,
	// then under each assembly body it has (bodies) on the same values
	// flush against the guard pages, and holds the first operand (the
	// output) to the Go body's.
	run := func(bodies func(func(string)), what string, lens [3]int, atEnd bool, leaf func(s [3][]float32)) {
		var orig, heap [3][]float32
		for i, n := range lens {
			orig[i] = make([]float32, n)
			fillKernelValues(rng, orig[i])
			heap[i] = slices.Clone(orig[i])
		}
		bodies(func(body string) {
			if body == "go" {
				leaf(heap)
				return
			}
			var guarded [3][]float32
			for i, n := range lens {
				guarded[i] = areas[i].floats(n, atEnd)
				copy(guarded[i], orig[i])
			}
			leaf(guarded)
			requireBitwise(t, fmt.Sprintf("%s/%s lens=%v atEnd=%v", body, what, lens, atEnd),
				FromSlice(guarded[0], lens[0]), FromSlice(heap[0], lens[0]))
		})
	}
	for _, atEnd := range []bool{false, true} {
		for n := 1; n <= maxN; n++ {
			run(kernelBodies, "mulAdd4", [3]int{n, 4, 4 * n}, atEnd, func(s [3][]float32) {
				mulAdd4(s[0], (*[4]float32)(s[1]), s[2], &[4]int{3, 1, 0, 2})
			})
			run(kernelBodies, "mulAdd1", [3]int{n, 1, n}, atEnd, func(s [3][]float32) {
				mulAdd1(s[0], s[1][0], s[2])
			})
			run(kernelBodies, "AddFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				AddFloats(s[0], s[1])
			})
			run(kernelBodies, "ScaleFloats", [3]int{n, 1, 0}, atEnd, func(s [3][]float32) {
				ScaleFloats(s[0], s[1][0])
			})
			run(kernelBodies, "MomentumStep", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				MomentumStep(s[0], s[1], s[2], 0.01, 0.9)
			})
			run(kernelBodies, "HalfEncode deq", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				HalfEncode(nil, s[1], s[2], s[0])
			})
			// The frame is the 2n bytes of s[0] that touch the guard page.
			run(kernelBodies, "HalfEncode frame", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				raw := unsafe.Slice((*byte)(unsafe.Pointer(&s[0][0])), 4*n)
				frame := raw[:2*n]
				if atEnd {
					frame = raw[2*n:]
				}
				HalfEncode(frame, s[1], s[2], nil)
			})
			// The decoders read the 2n bytes of s[1] that touch the guard page.
			halfFrame := func(s []float32) []byte {
				raw := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*n)
				if atEnd {
					return raw[2*n:]
				}
				return raw[:2*n]
			}
			run(kernelBodies, "HalfDecode", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				HalfDecode(halfFrame(s[1]), s[0])
			})
			run(kernelBodies, "HalfDecodeAdd", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				HalfDecodeAdd(halfFrame(s[1]), s[0])
			})
			run(kernelBodies, "HalfLand", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				HalfLand(halfFrame(s[1]), s[0], 0.5)
			})
			run(kernelBodies, "tanhFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				tanhFloats(s[0], s[1])
			})
			run(kernelBodies, "geluFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				geluFloats(s[0], s[1])
			})
			run(kernelBodies, "geluGradFloats", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				geluGradFloats(s[0], s[1], s[2])
			})
			for k := 1; k <= maxN; k++ {
				m := 1 + (n+k)%5 // the four-row dot kernel, and one row after it
				run(kernelBodies, "dotRows", [3]int{m * n, m * k, n * k}, atEnd, func(s [3][]float32) {
					dotRows(s[0], s[1], s[2], m, k, n)
				})
			}
			// The four-row tile and the rows after it, from both kernels
			// that use it: every column count meets the 64-wide blocks and
			// the masked 16-wide tail.
			for m := 1; m <= maxM; m++ {
				k := 1 + (n+m)%7
				run(tileBodies, "MatMul", [3]int{m * n, m * k, k * n}, atEnd, func(s [3][]float32) {
					copy(s[0], MatMul(FromSlice(s[1], m, k), FromSlice(s[2], k, n)).data)
				})
				run(tileBodies, "MatMulTransAInto", [3]int{m * n, k * m, k * n}, atEnd, func(s [3][]float32) {
					MatMulTransAInto(FromSlice(s[0], m, n), FromSlice(s[1], k, m), FromSlice(s[2], k, n))
				})
			}
		}
	}
}
