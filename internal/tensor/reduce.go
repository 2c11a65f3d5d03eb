package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements as a scalar tensor.
func Sum(a *Tensor) *Tensor {
	var s float32
	for _, v := range a.data {
		s += v
	}
	return Scalar(s)
}

// Mean returns the arithmetic mean of all elements as a scalar tensor.
func Mean(a *Tensor) *Tensor {
	if len(a.data) == 0 {
		panic("tensor: Mean of empty tensor")
	}
	return Scalar(Sum(a).Item() / float32(len(a.data)))
}

// MaxElem returns the largest element.
func MaxElem(a *Tensor) float32 {
	if len(a.data) == 0 {
		panic("tensor: MaxElem of empty tensor")
	}
	m := a.data[0]
	for _, v := range a.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMaxRows returns, for a [rows, cols] tensor, the column index of the
// maximum in each row. Used for classification accuracy.
func ArgMaxRows(a *Tensor) []int {
	if a.Dim() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows on shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for i := 0; i < rows; i++ {
		row := a.data[i*cols : (i+1)*cols]
		best := 0
		for j := 1; j < cols; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// SoftmaxRows returns row-wise softmax of a [rows, cols] tensor, computed
// in a numerically stable way (max subtraction).
func SoftmaxRows(a *Tensor) *Tensor {
	if a.Dim() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows on shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := a.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := a.data[i*cols : (i+1)*cols]
		orow := out.data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - m))
			orow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// LogSoftmaxRows returns row-wise log-softmax of a [rows, cols] tensor.
func LogSoftmaxRows(a *Tensor) *Tensor {
	if a.Dim() != 2 {
		panic(fmt.Sprintf("tensor: LogSoftmaxRows on shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := a.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := a.data[i*cols : (i+1)*cols]
		orow := out.data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		lse := float32(math.Log(sum)) + m
		for j, v := range row {
			orow[j] = v - lse
		}
	}
	return out
}

// MeanVar returns the mean and (biased) variance of all elements.
func MeanVar(a *Tensor) (mean, variance float32) {
	n := float64(len(a.data))
	if n == 0 {
		panic("tensor: MeanVar of empty tensor")
	}
	var s float64
	for _, v := range a.data {
		s += float64(v)
	}
	m := s / n
	var sq float64
	for _, v := range a.data {
		d := float64(v) - m
		sq += float64(d * d)
	}
	return float32(m), float32(sq / n)
}
