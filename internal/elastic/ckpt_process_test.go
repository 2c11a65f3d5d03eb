package elastic

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/store"
)

// Cross-process checkpoint acceptance test: the scenario elastic
// recovery alone cannot survive. Every worker process is hard-killed
// mid-iteration; a brand-new job — new store server, new worker
// processes, nothing shared but the checkpoint directory — restores
// from the last committed checkpoint and finishes bitwise-identical to
// an uninterrupted reference run. A deliberately planted torn commit
// must never be chosen.

// ckptTestDir returns the checkpoint directory for the test. When
// CKPT_TEST_DIR is set (CI does this), the directory lives under it so
// a failed run's checkpoint files can be uploaded as a build artifact
// for post-mortem; otherwise it is an ordinary test temp dir.
func ckptTestDir(t *testing.T) string {
	base := os.Getenv("CKPT_TEST_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
	// A previous -count=N iteration's leftovers would make "resume"
	// vacuously pass; each iteration starts from an empty directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			_ = os.RemoveAll(dir)
		}
	})
	return dir
}

func TestCheckpointColdStartRestoreAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process integration test; skipped in -short")
	}
	const (
		total     = 20
		every     = 5
		crashStep = 13 // last committed checkpoint lands at step 10
	)
	dir := ckptTestDir(t)
	ids := []string{"w0", "w1", "w2"}

	// Reference: the same schedule end to end, never interrupted, no
	// checkpointing — the ground truth the resumed run must hit bitwise.
	refResults := runProcessWorld(t, ids, total, nil)

	// Phase 1: same schedule with sharded checkpoints every `every`
	// steps, until every rank hard-exits mid-iteration at crashStep.
	ckptEnv := []string{
		"EW_CKPT_DIR=" + dir,
		"EW_CKPT_EVERY=" + strconv.Itoa(every),
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := store.ServeTCP(ln1, 60*time.Second)
	victims := make(map[string]*exec.Cmd, len(ids))
	for _, id := range ids {
		env := append([]string{"EW_CRASH_STEP=" + strconv.Itoa(crashStep)}, ckptEnv...)
		victims[id] = spawnWorker(t, ln1.Addr().String(), id, total, env...)
	}
	for id, cmd := range victims {
		if code := waitWorker(t, id, cmd, 60*time.Second); code != crashExitCode {
			t.Fatalf("worker %s exit code %d, want crash code %d", id, code, crashExitCode)
		}
	}
	srv1.Close() // the whole job is dead; even the store is gone

	meta, err := ckpt.LatestMeta(dir)
	if err != nil {
		t.Fatalf("no committed checkpoint after kill-all: %v", err)
	}
	if meta.Step != 10 {
		t.Fatalf("latest committed checkpoint at step %d, want 10", meta.Step)
	}

	// Plant a torn, newer-looking commit: an orphan shard plus a
	// corrupt manifest claiming step 15. Restore must reject it and
	// fall back to the genuine step-10 checkpoint — if it were loaded,
	// the bitwise comparison below would catch the divergence.
	plantTornCheckpoint(t, dir, 15)

	// Phase 2: cold start. New store server, new processes; only the
	// checkpoint directory connects them to the dead job.
	resumeEnv := append([]string{
		"EW_RESUME=1",
		"EW_ADMIT_STEP=10", // deterministic full-world formation at the restored step
	}, ckptEnv...)
	resumedResults := runProcessWorld(t, []string{"r0", "r1", "r2"}, total, resumeEnv)

	for id, r := range resumedResults {
		if r != refResults["w0"] {
			t.Errorf("resumed replica %s diverged from uninterrupted reference: %q vs %q", id, r, refResults["w0"])
		}
	}

	// Phase 3: re-sharding — the final checkpoint was written by a
	// world of 3; a world of 2 (different shard layout) must restore it
	// and continue. Consistency among the finishers proves the
	// reassembled state was coherent.
	reshardEnv := append([]string{"EW_RESUME=1", "EW_MIN=2", "EW_MAX=2"}, ckptEnv...)
	reshardResults := runProcessWorld(t, []string{"s0", "s1"}, total+4, reshardEnv)
	var first string
	for id, r := range reshardResults {
		if !strings.HasPrefix(r, fmt.Sprintf("step=%d ", total+4)) {
			t.Errorf("re-sharded worker %s result %q: did not resume from step %d and finish at %d", id, r, total, total+4)
		}
		if first == "" {
			first = r
		} else if r != first {
			t.Errorf("re-sharded replicas diverged: %q vs %q", r, first)
		}
	}
}

// runProcessWorld hosts a fresh TCP store, runs one worker process per
// id to completion, and returns each worker's published result record.
func runProcessWorld(t *testing.T, ids []string, total int, extraEnv []string) map[string]string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.ServeTCP(ln, 60*time.Second)
	defer srv.Close()
	cmds := make(map[string]*exec.Cmd, len(ids))
	for _, id := range ids {
		cmds[id] = spawnWorker(t, ln.Addr().String(), id, total, extraEnv...)
	}
	for id, cmd := range cmds {
		if code := waitWorker(t, id, cmd, 120*time.Second); code != 0 {
			t.Fatalf("worker %s exit code %d, want 0", id, code)
		}
	}
	client, err := store.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results := make(map[string]string, len(ids))
	for _, id := range ids {
		v, err := client.Get(ResultKey("elastic", id))
		if err != nil {
			t.Fatalf("result of %s: %v", id, err)
		}
		results[id] = string(v)
	}
	return results
}

// plantTornCheckpoint fabricates the debris of a crash mid-save at
// `step`: one orphan shard, one .tmp- manifest that never renamed, and
// one committed-looking manifest whose checksum is wrong.
func plantTornCheckpoint(t *testing.T, dir string, step int64) {
	t.Helper()
	orphan := filepath.Join(dir, fmt.Sprintf("g9-s%d-r0of3.shard", step))
	if err := os.WriteFile(orphan, []byte("DDPSHRD1 torn half-written shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(".tmp-g9-s%d.manifest", step)), []byte("DDPMANI1 never renamed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("g9-s%d.manifest", step)), []byte("DDPMANI1 bad frame"), 0o644); err != nil {
		t.Fatal(err)
	}
}
