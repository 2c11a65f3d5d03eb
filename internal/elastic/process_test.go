package elastic

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/ddp"
	"repro/internal/store"
	"repro/internal/testutil/leakcheck"
)

// Cross-process integration test: elastic workers as real OS processes
// over the TCP store and TCP meshes. The test binary re-execs itself as
// a worker when ELASTIC_TEST_WORKER is set (TestMain dispatches), so
// worker death is a genuine process exit — heartbeats stop because the
// process is gone and connections break because the kernel closed them,
// exactly the failure surface of a SIGKILLed trainer.

func TestMain(m *testing.M) {
	if os.Getenv("ELASTIC_TEST_WORKER") == "1" {
		os.Exit(elasticWorkerMain())
	}
	// Agent teardown is asynchronous (monitor loops drain after Stop
	// returns), so give stragglers a generous settle window.
	leakcheck.Main(m, leakcheck.Timeout(10*time.Second))
}

// crashExitCode marks a deliberate mid-step hard death.
const crashExitCode = 3

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: bad %s=%q: %v\n", key, v, err)
			os.Exit(1)
		}
		return n
	}
	return def
}

// elasticWorkerMain is one elastic worker process. Configuration comes
// from EW_* environment variables; on completion it publishes its final
// step and a parameter hash to the store so the supervisor can
// verify replica consistency across process boundaries.
func elasticWorkerMain() int {
	var (
		addr      = os.Getenv("EW_STORE")
		id        = os.Getenv("EW_ID")
		total     = int64(envInt("EW_TOTAL", 20))
		minW      = envInt("EW_MIN", 2)
		maxW      = envInt("EW_MAX", 3)
		crashStep = int64(envInt("EW_CRASH_STEP", -1))
		admitStep = int64(envInt("EW_ADMIT_STEP", -1))
		ckptDir   = os.Getenv("EW_CKPT_DIR")
		ckptEvery = int64(envInt("EW_CKPT_EVERY", 0))
		ckptAsync = envInt("EW_CKPT_ASYNC", 0) == 1
		resume    = envInt("EW_RESUME", 0) == 1
	)
	client, err := store.DialTCP(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: dial store: %v\n", id, err)
		return 1
	}
	defer client.Close()

	model := testModel()
	cfg := Config{
		Store:             client,
		ID:                id,
		Prefix:            "elastic",
		MinWorld:          minW,
		MaxWorld:          maxW,
		Grace:             500 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      500 * time.Millisecond,
		RoundTimeout:      10 * time.Second,
		DrainTimeout:      200 * time.Millisecond,
		Builder:           &TCPBuilder{Store: client},
		Replica:           ddpReplica(ddp.Options{BucketCapBytes: testBucketCap}),
	}
	if ckptDir != "" {
		cfg.Checkpoint = &CheckpointConfig{Dir: ckptDir, Every: ckptEvery, Async: ckptAsync, Resume: resume}
	}
	agent, err := NewAgent(cfg, model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", id, err)
		return 1
	}

	step := func(ctx StepContext) error {
		if crashStep >= 0 && ctx.Step == crashStep {
			// Die mid-iteration: forward done, gradients about to sync.
			// os.Exit skips all cleanup — peers see silence and broken
			// connections, as after a SIGKILL.
			x, _ := batchFor(ctx.Step, ctx.Rank, ctx.World)
			ctx.Replica.Forward(autograd.Constant(x))
			os.Exit(crashExitCode)
		}
		if ctx.Step == 0 && ctx.Generation == 0 && ctx.World < maxW {
			// A slow starter can miss the grace window; wait for its
			// generation bump so the schedule is deterministic.
			return agent.AwaitGenerationChange()
		}
		if admitStep >= 0 && ctx.Step == admitStep && ctx.World < maxW {
			// Park until the respawned replacement's join bumps the
			// generation, so the (fast) training loop cannot outrun the
			// (wall-clock) respawn.
			return agent.AwaitGenerationChange()
		}
		return elasticStep(ctx)
	}
	if err := agent.Run(total, step); err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: run: %v\n", id, err)
		return 1
	}

	if err := PublishResult(client, cfg.Prefix, id, agent.Step(), model); err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: publishing result: %v\n", id, err)
		return 1
	}
	return 0
}

// spawnWorker launches one worker process against the given store.
func spawnWorker(t *testing.T, addr, id string, total int, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"ELASTIC_TEST_WORKER=1",
		"EW_STORE="+addr,
		"EW_ID="+id,
		"EW_TOTAL="+strconv.Itoa(total),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning worker %s: %v", id, err)
	}
	return cmd
}

// waitWorker waits for a worker process with a deadline and returns its
// exit code.
func waitWorker(t *testing.T, name string, cmd *exec.Cmd, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("worker %s: %v", name, err)
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("worker %s did not exit within %v", name, timeout)
	}
	return -1
}

// TestCrossProcessElasticRecovery is the acceptance scenario as real OS
// processes: three workers train over TCP meshes; one hard-exits
// mid-iteration (no cleanup, like SIGKILL); the survivors detect the
// death, abort their group, re-rendezvous at world 2, and keep
// training; the supervisor respawns a replacement process that rejoins
// the running job, receives state, and finishes alongside the
// survivors with a bit-identical replica.
func TestCrossProcessElasticRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process integration test; skipped in -short")
	}
	srv, err := store.ServeTCP("127.0.0.1:0", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		total     = 20
		crashStep = 6
		admitStep = 9 // survivors park here until the replacement joins
	)
	survivorEnv := []string{"EW_ADMIT_STEP=" + strconv.Itoa(admitStep)}
	w0 := spawnWorker(t, srv.Addr(), "w0", total, survivorEnv...)
	w1 := spawnWorker(t, srv.Addr(), "w1", total, survivorEnv...)
	victim := spawnWorker(t, srv.Addr(), "w2", total, "EW_CRASH_STEP="+strconv.Itoa(crashStep))

	// The victim must die by its own hand, with the crash exit code.
	if code := waitWorker(t, "victim", victim, 60*time.Second); code != crashExitCode {
		t.Fatalf("victim exit code %d, want %d", code, crashExitCode)
	}

	// Supervise: the dead rank is replaced by a fresh OS process that
	// rejoins the rendezvous and is brought up to date via state sync.
	replacement := spawnWorker(t, srv.Addr(), "r1", total)

	for _, w := range []struct {
		name string
		cmd  *exec.Cmd
	}{{"w0", w0}, {"w1", w1}, {"r1", replacement}} {
		if code := waitWorker(t, w.name, w.cmd, 120*time.Second); code != 0 {
			t.Fatalf("worker %s exit code %d, want 0", w.name, code)
		}
	}

	// Every finisher — including the respawned process — must have
	// completed all steps with bit-identical parameters.
	client, err := store.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results := make(map[string]string)
	for _, id := range []string{"w0", "w1", "r1"} {
		v, err := client.Get(ResultKey("elastic", id))
		if err != nil {
			t.Fatalf("result of %s: %v", id, err)
		}
		results[id] = string(v)
	}
	wantPrefix := fmt.Sprintf("step=%d hash=", total)
	for id, r := range results {
		if r != results["w0"] {
			t.Errorf("replica %s diverged: %q vs w0's %q", id, r, results["w0"])
		}
		if len(r) < len(wantPrefix) || r[:len(wantPrefix)] != wantPrefix {
			t.Errorf("replica %s result %q does not record step %d", id, r, total)
		}
	}
	// The victim never published a result.
	if swapped, err := client.CompareAndSwap(ResultKey("elastic", "w2"), nil, []byte("probe")); err != nil || !swapped {
		t.Errorf("victim unexpectedly published a result (swapped=%v, err=%v)", swapped, err)
	}
}
