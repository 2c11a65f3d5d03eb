// Package tensor provides dense, row-major, float32 n-dimensional arrays
// and the numeric kernels the autograd engine and neural network layers
// are built on.
//
// Tensors are deliberately simple: contiguous storage, row-major layout,
// no strides. A tensor shares storage with another only when it was made
// to: Reshape returns a view of its receiver, and FromSlice wraps the
// slice it is given — which is how DDP makes a parameter's gradient a
// view of its slot in a flat bucket buffer. The kernels (Add, MatMul,
// ...) allocate their results; the *InPlace ones write their first
// argument, and MatMulTransAInto the destination it is handed — which
// is how a weight gradient is written straight into that slot.
// SharesStorage tells the situations apart.
package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Tensor is a dense float32 n-dimensional array in row-major order.
// The zero value is an empty scalar-less tensor; use the constructors.
type Tensor struct {
	data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape. A nil or empty
// shape produces a scalar (one element, zero dimensions).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor of the given shape. The tensor takes
// ownership of the slice; it is not copied. The length of data must equal
// the product of the shape dimensions.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Scalar returns a zero-dimensional tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{data: []float32{v}, shape: nil}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the number of dimensions.
func (t *Tensor) Dim() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dims returns the size of dimension i.
func (t *Tensor) Dims(i int) int { return t.shape[i] }

// Data returns the underlying storage. Mutating it mutates the tensor;
// this is how communication backends and DDP buckets access gradients
// without copies.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Item returns the sole element of a one-element tensor.
func (t *Tensor) Item() float32 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{data: append([]float32(nil), t.data...), shape: append([]int(nil), t.shape...)}
}

// CopyFrom copies src's elements into t. Sizes must match; shapes may
// differ (used to copy gradients into flat bucket views and back).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a view with a new shape sharing the same storage.
// The element count must be preserved. One dimension may be -1, in which
// case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v to %v changes element count", t.shape, shape))
	}
	return &Tensor{data: t.data, shape: shape}
}

// SharesStorage reports whether t and o overlap in memory, as a tensor
// and its Reshape view do, or two FromSlice tensors over overlapping
// slices. Writing one of such a pair changes the other.
func (t *Tensor) SharesStorage(o *Tensor) bool {
	if len(t.data) == 0 || len(o.data) == 0 {
		return false
	}
	tLo := uintptr(unsafe.Pointer(unsafe.SliceData(t.data)))
	oLo := uintptr(unsafe.Pointer(unsafe.SliceData(o.data)))
	return tLo < oLo+4*uintptr(len(o.data)) && oLo < tLo+4*uintptr(len(t.data))
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and elementwise
// |a-b| <= atol + rtol*|b|.
func (t *Tensor) AllClose(o *Tensor, rtol, atol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		d := float64(t.data[i] - o.data[i])
		if math.Abs(d) > float64(atol)+float64(rtol)*math.Abs(float64(o.data[i])) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// t and o, which must have equal sizes.
func (t *Tensor) MaxAbsDiff(o *Tensor) float32 {
	if len(t.data) != len(o.data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	var m float32
	for i := range t.data {
		d := t.data[i] - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// String renders small tensors in full and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}
