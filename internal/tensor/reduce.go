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
