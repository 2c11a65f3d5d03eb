// Command allreduce benchmarks the collective stack the way nccl-tests
// benchmarks NCCL: it sweeps message sizes and reports per-op latency
// and algorithm bandwidth (2(k-1)/k · bytes / time, the standard ring
// bus-bandwidth formula) for each AllReduce algorithm, over in-process
// goroutine ranks or real TCP loopback processes-in-one (goroutine
// ranks with TCP sockets).
//
//	allreduce -world 4 -transport inproc
//	allreduce -world 4 -transport tcp -algos ring,tree
//
// This regenerates, on real hardware, the qualitative content of the
// paper's Fig 2(a)/(b): per-op overhead dominates small messages, so
// batching gradients into buckets pays.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/transport"
)

func main() {
	var (
		world       = flag.Int("world", 4, "number of ranks (goroutines)")
		transp      = flag.String("transport", "inproc", "transport: inproc or tcp")
		algosFlag   = flag.String("algos", "ring,tree,doubletree,naive", "comma-separated algorithms")
		minElems    = flag.Int("min", 1024, "smallest message (float32 elements)")
		maxElems    = flag.Int("max", 1<<22, "largest message (float32 elements)")
		reps        = flag.Int("reps", 5, "repetitions per size (median reported)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus text-format metrics at this address under /metrics (empty: disabled)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		msrv, err := metrics.Default().Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "allreduce: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("[metrics] serving http://%s/metrics\n", msrv.Addr())
	}

	algos, err := parseAlgos(*algosFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, algo := range algos {
		if err := run(*world, *transp, algo, *minElems, *maxElems, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "allreduce: %v\n", err)
			os.Exit(1)
		}
	}
}

func parseAlgos(s string) ([]comm.Algorithm, error) {
	var out []comm.Algorithm
	for _, name := range strings.Split(s, ",") {
		algo, err := comm.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, algo)
	}
	return out, nil
}

func buildGroups(world int, transp string, algo comm.Algorithm) ([]comm.ProcessGroup, func(), error) {
	opts := comm.Options{Algorithm: algo}
	switch transp {
	case "inproc":
		groups := comm.NewInProcGroups(world, opts)
		return groups, func() { closeAll(groups) }, nil
	case "tcp":
		srv, err := store.ServeTCP("127.0.0.1:0", 30*time.Second)
		if err != nil {
			return nil, nil, err
		}
		groups := make([]comm.ProcessGroup, world)
		var wg sync.WaitGroup
		errs := make([]error, world)
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				client, err := store.DialTCP(srv.Addr())
				if err != nil {
					errs[rank] = err
					return
				}
				mesh, err := transport.NewTCPMesh(rank, world, client, fmt.Sprintf("bench-%v", algo))
				if err != nil {
					errs[rank] = err
					return
				}
				groups[rank] = comm.NewGroup(mesh, opts)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				srv.Close()
				return nil, nil, err
			}
		}
		return groups, func() { closeAll(groups); srv.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown transport %q", transp)
	}
}

func run(world int, transp string, algo comm.Algorithm, minElems, maxElems, reps int) error {
	groups, cleanup, err := buildGroups(world, transp, algo)
	if err != nil {
		return err
	}
	defer cleanup()

	fmt.Printf("\nAllReduce %s over %s, %d ranks (%d reps, median)\n", algo, transp, world, reps)
	fmt.Printf("%12s %12s %14s %14s\n", "elements", "bytes", "latency", "busbw (MB/s)")
	for n := minElems; n <= maxElems; n *= 4 {
		bufs := make([][]float32, world)
		for r := range bufs {
			bufs[r] = make([]float32, n)
			for i := range bufs[r] {
				bufs[r][i] = float32(r + i)
			}
		}
		latencies := make([]time.Duration, 0, reps)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			var wg sync.WaitGroup
			errs := make([]error, world)
			for r := 0; r < world; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = groups[rank].AllReduce(bufs[rank], comm.Sum).Wait()
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			latencies = append(latencies, time.Since(start))
		}
		med := median(latencies)
		bytes := 4 * n
		// Ring bus bandwidth: each rank moves 2(k-1)/k of the payload.
		busBW := 2 * float64(world-1) / float64(world) * float64(bytes) / med.Seconds() / 1e6
		fmt.Printf("%12d %12d %14s %14.1f\n", n, bytes, med.Round(time.Microsecond), busBW)
	}
	return nil
}

func median(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

func closeAll(groups []comm.ProcessGroup) {
	for _, g := range groups {
		if g != nil {
			g.Close()
		}
	}
}
