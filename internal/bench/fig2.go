package bench

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/models"
)

// Fig2Point is one point of the Fig 2(a)/(b) communication curves.
type Fig2Point struct {
	// ParamsPerOp is the AllReduce granularity (x-axis).
	ParamsPerOp int
	// TotalSeconds is the time to AllReduce all 60M parameters at that
	// granularity (y-axis).
	TotalSeconds float64
}

// Fig2CommCurve reproduces Fig 2(a)/(b): total time to AllReduce 60M
// float32 parameters as a function of parameters per AllReduce, on two
// GPUs (the paper's NVLink server), for the given backend profile.
func Fig2CommCurve(backend hw.Backend) []Fig2Point {
	c := hw.DefaultCluster()
	const totalParams = 60_000_000
	sizes := []int{1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000, 20_000_000}
	points := make([]Fig2Point, 0, len(sizes))
	for _, perOp := range sizes {
		ops := totalParams / perOp
		t := float64(ops) * c.AllReduceSeconds(backend, comm.Ring, perOp*4, 2)
		points = append(points, Fig2Point{ParamsPerOp: perOp, TotalSeconds: t})
	}
	return points
}

// Fig2ComputePoint is one point of the Fig 2(c)/(d) backward curves.
type Fig2ComputePoint struct {
	// ReadyParams is the cumulative number of parameters whose gradient
	// is ready (x-axis).
	ReadyParams int
	// MedianSeconds is the modeled elapsed backward time (y-axis).
	MedianSeconds float64
	// MinSeconds and MaxSeconds bound the measured range band.
	MinSeconds, MaxSeconds float64
}

// Fig2ComputeCurve reproduces Fig 2(c)/(d): elapsed time in the backward
// pass of a ~60M-parameter ResNet152 as gradients become ready, on GPU
// or CPU. The ±7% band stands in for the paper's measured min/max range.
func Fig2ComputeCurve(device hw.Device) []Fig2ComputePoint {
	profile := models.ResNet152()
	sizes := profile.Sizes()
	total := profile.TotalParams()
	comp := hw.Profile(device, total)

	// Gradients become ready in reverse registration order.
	var points []Fig2ComputePoint
	cum := 0
	for i := len(sizes) - 1; i >= 0; i-- {
		cum += sizes[i]
		if (len(sizes)-1-i)%7 != 0 && i != 0 { // subsample for readable tables
			continue
		}
		t := comp.GradReadySeconds(cum, total)
		points = append(points, Fig2ComputePoint{
			ReadyParams:   cum,
			MedianSeconds: t,
			MinSeconds:    t * 0.93,
			MaxSeconds:    t * 1.07,
		})
	}
	return points
}

// Fig2 prints all four panels of Fig 2.
func Fig2(w io.Writer) error {
	for _, backend := range allBackends {
		header(w, fmt.Sprintf("Fig 2(%s): total %s execution time vs params per AllReduce (60M params, 2 GPUs)",
			map[hw.Backend]string{hw.NCCLLike: "a", hw.GlooLike: "b"}[backend], backend))
		fmt.Fprintf(w, "%14s %16s\n", "params/op", "total (sec)")
		for _, p := range Fig2CommCurve(backend) {
			fmt.Fprintf(w, "%14d %16.5f\n", p.ParamsPerOp, p.TotalSeconds)
		}
	}
	for _, device := range []hw.Device{hw.GPU, hw.CPU} {
		header(w, fmt.Sprintf("Fig 2(%s): backward elapsed time on %s vs ready params (ResNet152, ~60M params)",
			map[hw.Device]string{hw.GPU: "c", hw.CPU: "d"}[device], device))
		fmt.Fprintf(w, "%14s %12s %12s %12s\n", "ready params", "min", "median", "max")
		pts := Fig2ComputeCurve(device)
		step := len(pts) / 12
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(pts); i += step {
			p := pts[i]
			fmt.Fprintf(w, "%14d %12.4f %12.4f %12.4f\n", p.ReadyParams, p.MinSeconds, p.MedianSeconds, p.MaxSeconds)
		}
	}
	return nil
}
