package main

import (
	"syscall"
	"time"
)

// Machine-speed calibration.
//
// The reference box is a two-vCPU guest on a shared host, and the host
// changes how fast those vCPUs run from one second to the next: a
// cache-resident loop alternates between two speeds 27 % apart, each
// held for one to five seconds, and runs slower still right after a
// rank slept on the shaped link. How long the slow state lasts drifts
// over minutes, so ten 10-second runs of the same code spread by 10 to
// 30 % on raw step time, more than any bound this benchmark may set.
//
// So every rank runs a fixed kernel of the benchmark's own after each
// step: a float32 matrix product that fits in the L2 cache and calls
// nothing of the repository, so no change to the program can move it.
// Its duration says how fast that vCPU ran just then. A step's time is
// then scaled to the speed at which the kernel takes calibRefNS, but
// only its busy share (process CPU time over wall time x ranks): time
// spent waiting for the link does not depend on the machine's speed.
// On ten runs with ten seeds this cut the spread of step time two- to
// sevenfold on every workload (README, "Speed correction").
const (
	calibN = 128 // the kernel multiplies two calibN x calibN matrices
	// calibRefNS is the kernel's usual duration on the reference box
	// while both ranks are busy. It only fixes the scale of the
	// corrected times: a change's and its parent's runs share it.
	calibRefNS = 1.1e6
)

// calibrator holds one rank's operands, so that ranks share no cache
// line.
type calibrator struct{ a, b, c []float32 }

func newCalibrator() *calibrator {
	k := &calibrator{
		a: make([]float32, calibN*calibN),
		b: make([]float32, calibN*calibN),
		c: make([]float32, calibN*calibN),
	}
	for i := range k.a {
		k.a[i] = float32(i%7) * 0.1
		k.b[i] = float32(i%5) * 0.1
	}
	return k
}

// run executes the kernel once and returns how long it took, in
// nanoseconds.
func (k *calibrator) run() int64 {
	begin := time.Now()
	clear(k.c)
	for i := 0; i < calibN; i++ {
		out := k.c[i*calibN : (i+1)*calibN]
		for p := 0; p < calibN; p++ {
			aip := k.a[i*calibN+p]
			row := k.b[p*calibN : (p+1)*calibN]
			for j := range row {
				out[j] += aip * row[j]
			}
		}
	}
	return int64(time.Since(begin))
}

// processCPU is the CPU time, user plus system, this process has used so
// far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // a busy share of 0 leaves the times uncorrected
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speed is how measured times are brought to reference speed.
type speed struct {
	busy     float64   // share of the wall time during which a rank's core was busy
	kernelMS []float64 // per measured time, the ranks' mean calibration time
}

// newSpeed derives the correction for times measured over wall, during
// which the process used cpu; kernelAll and kernelWall are the CPU and
// wall time of calibration runs inside that stretch, which are taken out.
func newSpeed(wall, cpu time.Duration, kernelAll, kernelWall int64, kernelMS []float64) speed {
	s := speed{kernelMS: kernelMS}
	if w := int64(wall) - kernelWall; w > 0 {
		s.busy = min(max(float64(int64(cpu)-kernelAll)/float64(world*w), 0), 1)
	}
	return s
}

// speedOf is the correction for a window's step times.
func (c *cluster) speedOf(win window) speed {
	kernelMS := make([]float64, win.steps)
	var kernelAll, kernelWall int64
	for i := range kernelMS {
		var sum, longest int64
		for _, r := range c.ranks {
			sum += r.recs[i].calib
			longest = max(longest, r.recs[i].calib)
		}
		kernelAll += sum
		kernelWall += longest
		kernelMS[i] = float64(sum) / world * msPerNS
	}
	return newSpeed(win.wall, win.cpu, kernelAll, kernelWall, kernelMS)
}

// calibrate runs the kernel once on every rank at the same time and
// returns the mean duration in milliseconds.
func (c *cluster) calibrate() float64 {
	var sum [world]int64
	_ = eachRank(func(r int) error { // the kernel cannot fail
		sum[r] = c.ranks[r].cal.run()
		return nil
	})
	var total int64
	for _, ns := range sum {
		total += ns
	}
	return float64(total) / world * msPerNS
}

// correct scales raw times (any unit) to reference speed.
func (s speed) correct(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, t := range raw {
		out[i] = t * (1 - s.busy + s.busy*calibRefNS*msPerNS/s.kernelMS[i])
	}
	return out
}
