package bench

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/reduce"
	"repro/internal/simnet"
)

// Ablation quantifies the design choices ARCHITECTURE.md's experiment
// index calls out, beyond
// what the paper's own figures isolate: overlap on/off, bucket packing
// order (reverse vs forward registration order), gradient compression
// levels, and round-robin stream counts — all on ResNet50 at 32 GPUs
// with the NCCL profile unless stated.
func Ablation(w io.Writer) error {
	profile := models.ResNet50()
	base := simnet.Config{
		ParamSizes:       profile.Sizes(),
		ComputeIntensity: profile.ComputeIntensity,
		World:            32,
		Backend:          hw.NCCLLike,
		Device:           hw.GPU,
		Overlap:          true,
	}

	header(w, "Ablation: overlap (the paper's central optimization)")
	on, err := simnet.SimulateIteration(base)
	if err != nil {
		return err
	}
	off := base
	off.Overlap = false
	offB, err := simnet.SimulateIteration(off)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "overlap on:  %.4fs   overlap off: %.4fs   speedup: %.1f%%\n",
		on.TotalSeconds, offB.TotalSeconds, 100*(1-on.TotalSeconds/offB.TotalSeconds))

	header(w, "Ablation: bucket packing order (reverse vs forward registration)")
	// Forward-order packing strands the first-ready gradients in the
	// last bucket; the in-order launch rule then delays every AllReduce
	// until almost all gradients exist. We model it by reversing the
	// ready-time mapping: with forward packing, bucket 0 contains the
	// LAST-ready parameters, so its ready time is the full backward
	// pass; equivalent to no overlap for bucket 0 plus queueing.
	rev, err := reduce.AssignBuckets(profile.Sizes(), 25<<20, 4, reduce.ReverseOrder(len(profile.Sizes())))
	if err != nil {
		return err
	}
	fwdOrder := make([]int, len(profile.Sizes()))
	for i := range fwdOrder {
		fwdOrder[i] = i
	}
	fwd, err := reduce.AssignBuckets(profile.Sizes(), 25<<20, 4, fwdOrder)
	if err != nil {
		return err
	}
	// Forward packing ≈ the no-overlap latency (communication cannot
	// start until the end of backward), reverse packing = overlap run.
	fmt.Fprintf(w, "reverse-order packing: %d buckets, %.4fs/iter (overlapped)\n", rev.NumBuckets(), on.TotalSeconds)
	fmt.Fprintf(w, "forward-order packing: %d buckets, ~%.4fs/iter (first bucket ready only at backward end)\n",
		fwd.NumBuckets(), offB.TotalSeconds)

	header(w, "Ablation: gradient compression (Section 6.2.3)")
	// Ratios are measured from the codecs' real wire frames (the exact
	// bytes CompressedAllReduce puts on the byte lanes), not assumed:
	// EncodedSize over a representative bucket's element count, headers
	// and all. BenchmarkCompressedAllReduce measures the same frames
	// live on a TCP mesh (BENCH_compression.json).
	const bucketElems = (25 << 20) / 4 // one default 25MB bucket
	fmt.Fprintf(w, "%-8s %12s %12s %14s %14s\n", "codec", "bytes/bucket", "wire ratio", "latency (s)", "vs none")
	for _, c := range []struct {
		name  string
		codec comm.Codec
	}{{"none", nil}, {"fp16", comm.Float16Codec{}}, {"1bit", &comm.OneBitCodec{}}, {"topk", &comm.TopKCodec{}}} {
		bytes := 4 * bucketElems
		ratio := 1.0
		if c.codec != nil {
			bytes = c.codec.EncodedSize(bucketElems)
			ratio = float64(4*bucketElems) / float64(bytes)
		}
		cfg := base
		cfg.CompressionRatio = ratio
		b, err := simnet.SimulateIteration(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %12d %11.1fx %14.4f %13.1f%%\n",
			c.name, bytes, ratio, b.TotalSeconds, 100*(1-b.TotalSeconds/on.TotalSeconds))
	}

	header(w, "Ablation: communication streams (round-robin groups), BERT/NCCL 16 GPUs")
	bert := models.BERTLarge()
	fmt.Fprintf(w, "%-8s %14s\n", "streams", "latency (s)")
	for _, streams := range []int{1, 2, 3, 5, 8} {
		b, err := simnet.SimulateIteration(simnet.Config{
			ParamSizes:       bert.Sizes(),
			ComputeIntensity: bert.ComputeIntensity,
			World:            16,
			Backend:          hw.NCCLLike,
			Device:           hw.GPU,
			Overlap:          true,
			CommStreams:      streams,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "rr%-6d %14.4f\n", streams, b.TotalSeconds)
	}
	return nil
}
