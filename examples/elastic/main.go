// Example elastic demonstrates fault-tolerant data parallel training
// (the paper's Section 7 future direction, implemented in
// internal/elastic): three workers train together, one leaves cleanly
// mid-run, the survivors reconfigure and continue at the smaller
// world, and a newcomer then joins and is brought up to date with
// model + optimizer state from a survivor — all without losing any
// completed step.
//
// For the crash (rather than clean-exit) scenario, see
// `ddptrain -elastic`, which crashes a worker mid-iteration, trains on
// at the shrunken world, and then starts a replacement — as goroutines
// like this example, or with -launch as OS processes, on the same
// trajectory.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/elastic"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/train"
)

const (
	features = 32
	hidden   = 32
	classes  = 5
	batch    = 8
	steps    = 12
	leaveAt  = 4 // the departing worker's last completed step
	admitAt  = 8 // step at which the newcomer is admitted
)

// batches is the worker's shard, a pure function of (step, rank,
// world), which is what makes re-sharding across reconfigurations
// trivial.
var batches = data.Coords{Batch: batch, Features: features, Classes: classes}

type worker struct {
	name  string
	agent *elastic.Agent
	model nn.Module
}

func newWorker(name string, st store.Store, reg *comm.InProcRegistry) *worker {
	model := models.NewMLP(3, features, hidden, classes)
	agent, err := elastic.NewAgent(elastic.Config{
		Store:             st,
		ID:                name,
		MinWorld:          2,
		MaxWorld:          3,
		Grace:             200 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		Builder:           &elastic.InProcBuilder{Registry: reg},
		// The job's one choice of strategy: DDP plus momentum SGD. The
		// agent has aligned the replicas before it asks for one.
		Replica: func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
			return strategy.Build(m, pg, strategy.Spec{BucketCapBytes: 1 << 12, LR: 0.05, Aligned: true})
		},
	}, model)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return &worker{name: name, agent: agent, model: model}
}

func (w *worker) trainStep(ctx elastic.StepContext) error {
	x, labels := batches.At(ctx.Step, ctx.Rank, ctx.World)
	st, err := train.Step(ctx.Replica, x, train.CrossEntropy(labels), true)
	if err != nil {
		return err
	}
	if ctx.Rank == 0 {
		fmt.Printf("step %2d  gen %d  world %d  loss %.4f\n",
			ctx.Step, ctx.Generation, ctx.World, st.Loss)
	}
	return nil
}

func main() {
	active, leaver := run()
	hash := func(w *worker) uint64 { return replica.Hash(w.model.Parameters()) }
	a, b, d := active[0], active[1], active[2]
	fmt.Printf("final parameter hashes: alice %016x  bob %016x  dave %016x  (carol left at step %d with %d/%d steps)\n",
		hash(a), hash(b), hash(d), leaveAt, leaver.agent.Step(), steps)
	if hash(a) != hash(b) || hash(a) != hash(d) {
		log.Fatal("replicas diverged")
	}
	fmt.Println("all active replicas identical — training survived scale-down and scale-up")
}

// run trains the scenario to its end and returns the workers active at
// the end, alice, bob and dave, and carol, who left.
func run() (active []*worker, leaver *worker) {
	st := store.NewInMem(30 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()

	a := newWorker("alice", st, reg)
	b := newWorker("bob", st, reg)
	leaver = newWorker("carol", st, reg)
	joinGate := make(chan struct{})
	var admit sync.Once

	run := func(w *worker, step elastic.StepFunc) func() error {
		return func() error { return w.agent.Run(steps, step) }
	}
	// Carol departs cleanly after step leaveAt; Alice and Bob admit
	// Dave at step admitAt by yielding to his generation bump.
	carolStep := func(ctx elastic.StepContext) error {
		if ctx.Step == leaveAt {
			fmt.Printf("-- carol leaves after step %d\n", ctx.Step)
			leaver.agent.Leave()
		}
		return leaver.trainStep(ctx)
	}
	incumbent := func(w *worker) elastic.StepFunc {
		return func(ctx elastic.StepContext) error {
			if ctx.Step == admitAt && ctx.World == 2 {
				admit.Do(func() {
					fmt.Printf("-- admitting dave at step %d\n", ctx.Step)
					close(joinGate)
				})
				return w.agent.AwaitGenerationChange()
			}
			return w.trainStep(ctx)
		}
	}

	var wg sync.WaitGroup
	results := make(map[string]error)
	var mu sync.Mutex
	launch := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := fn()
			mu.Lock()
			results[name] = err
			mu.Unlock()
		}()
	}
	launch("alice", run(a, incumbent(a)))
	launch("bob", run(b, incumbent(b)))
	launch("carol", run(leaver, carolStep))

	<-joinGate
	d := newWorker("dave", st, reg)
	launch("dave", run(d, d.trainStep))
	wg.Wait()

	for name, err := range results {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	return []*worker{a, b, d}, leaver
}
