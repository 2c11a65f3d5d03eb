// The gradcompress example exercises the gradient compression extension
// of the paper's Section 6.2.3: the same training run with no
// compression, fp16, 1-bit, and top-k quantization with error feedback,
// comparing final losses. DDP routes buckets through
// comm.CompressedAllReduce: the accuracy effect is real AND the byte
// savings are real (in-proc byte frames here; see
// BenchmarkCompressedAllReduce for the measured TCP wire bytes).
//
//	go run ./examples/gradcompress
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/optim"
)

const (
	world = 4
	iters = 150
	batch = 16
)

func main() {
	codecs := []struct {
		name    string
		factory func() comm.Codec
	}{
		{"none", nil},
		{"fp16", func() comm.Codec { return comm.Float16Codec{} }},
		{"1bit+error-feedback", func() comm.Codec { return &comm.OneBitCodec{} }},
		{"topk+error-feedback", func() comm.Codec { return &comm.TopKCodec{} }},
	}
	fmt.Printf("%-22s %12s\n", "codec", "final loss")
	for _, c := range codecs {
		loss := train(c.factory)
		fmt.Printf("%-22s %12.4f\n", c.name, loss)
	}
	fmt.Println("\nfp16 should track the uncompressed loss closely; 1-bit and top-k trade")
	fmt.Println("a little accuracy for ~32x / ~5x less gradient traffic (Section 6.2.3).")
}

func train(codec func() comm.Codec) float32 {
	dataset := data.NewSynthetic(11, 2048, 32, 8)
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	losses := make([]float32, world)

	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			model := models.NewMLP(5, dataset.Features(), 48, dataset.Classes())
			d, err := ddp.New(model, groups[rank], ddp.Options{NewCodec: codec})
			if err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
			opt := optim.NewSGD(d.Parameters(), 0.05)
			opt.Momentum = 0.9
			sampler, err := data.NewDistributedSampler(dataset.Len(), rank, world)
			if err != nil {
				log.Fatal(err)
			}
			loader, err := data.NewLoader(dataset, sampler, batch)
			if err != nil {
				log.Fatal(err)
			}
			for it := 0; it < iters; it++ {
				x, labels := loader.Next()
				out := d.Forward(autograd.Constant(x))
				loss := autograd.CrossEntropyLoss(out, labels)
				losses[rank] = loss.Value.Item()
				if err := d.Backward(loss); err != nil {
					log.Fatalf("rank %d iter %d: %v", rank, it, err)
				}
				opt.Step()
				opt.ZeroGrad()
			}
		}(rank)
	}
	wg.Wait()
	return losses[0]
}
