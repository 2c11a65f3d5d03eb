package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

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
	if !useAVX {
		t.Skip("no AVX2 on this machine: the Go bodies are the only bodies")
	}
	const maxN = 70
	const maxM = 5 // the four-row dot kernel, and one row after it
	areas := [3]guardedArea{newGuardedArea(t, 4*maxM*maxN), newGuardedArea(t, 4*maxM*maxN), newGuardedArea(t, 4*maxN*maxN)}
	rng := rand.New(rand.NewSource(31))
	// run calls leaf on operands of the given lengths, flush against the
	// guard pages, and holds the first (the output) to the Go body's.
	run := func(what string, lens [3]int, atEnd bool, leaf func(s [3][]float32)) {
		var guarded, heap [3][]float32
		for i, n := range lens {
			guarded[i] = areas[i].floats(n, atEnd)
			fillKernelValues(rng, guarded[i])
			heap[i] = append([]float32(nil), guarded[i]...)
		}
		kernelBodies(func(body string) {
			if body == "asm" {
				leaf(guarded)
			} else {
				leaf(heap)
			}
		})
		got, want := FromSlice(guarded[0], lens[0]), FromSlice(heap[0], lens[0])
		requireBitwise(t, fmt.Sprintf("%s lens=%v atEnd=%v", what, lens, atEnd), got, want)
	}
	for _, atEnd := range []bool{false, true} {
		for n := 1; n <= maxN; n++ {
			run("mulAdd4", [3]int{n, 4, 4 * n}, atEnd, func(s [3][]float32) {
				mulAdd4(s[0], (*[4]float32)(s[1]), s[2], &[4]int{3, 1, 0, 2})
			})
			run("mulAdd1", [3]int{n, 1, n}, atEnd, func(s [3][]float32) {
				mulAdd1(s[0], s[1][0], s[2])
			})
			run("AddFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				AddFloats(s[0], s[1])
			})
			run("ScaleFloats", [3]int{n, 1, 0}, atEnd, func(s [3][]float32) {
				ScaleFloats(s[0], s[1][0])
			})
			run("MomentumStep", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				MomentumStep(s[0], s[1], s[2], 0.01, 0.9)
			})
			run("HalfEncode deq", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				HalfEncode(nil, s[1], s[2], s[0])
			})
			// The frame is the 2n bytes of s[0] that touch the guard page.
			run("HalfEncode frame", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				raw := unsafe.Slice((*byte)(unsafe.Pointer(&s[0][0])), 4*n)
				frame := raw[:2*n]
				if atEnd {
					frame = raw[2*n:]
				}
				HalfEncode(frame, s[1], s[2], nil)
			})
			run("tanhFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				tanhFloats(s[0], s[1])
			})
			run("geluFloats", [3]int{n, n, 0}, atEnd, func(s [3][]float32) {
				geluFloats(s[0], s[1])
			})
			run("geluGradFloats", [3]int{n, n, n}, atEnd, func(s [3][]float32) {
				geluGradFloats(s[0], s[1], s[2])
			})
			for k := 1; k <= maxN; k++ {
				m := 1 + (n+k)%maxM
				run("dotRows", [3]int{m * n, m * k, n * k}, atEnd, func(s [3][]float32) {
					dotRows(s[0], s[1], s[2], m, k, n)
				})
			}
		}
	}
}
