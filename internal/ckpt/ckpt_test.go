package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func testModel(seed int64) nn.Module { return models.NewMLP(seed, 8, 16, 4) }

// newTestState builds a model+optimizer pair with non-trivial state:
// parameters from seed, momentum from one fake step.
func newTestState(t testing.TB, seed int64) (nn.Module, *optim.SGD) {
	t.Helper()
	m := testModel(seed)
	opt := optim.NewSGD(m.Parameters(), 0.1)
	opt.Momentum = 0.9
	for _, p := range m.Parameters() {
		p.Grad = tensor.Ones(p.Value.Shape()...)
	}
	opt.Step()
	opt.ZeroGrad()
	return m, opt
}

func captureTest(t testing.TB, m nn.Module, opt optim.StateFlattener, meta Meta) *Snapshot {
	t.Helper()
	snap, err := Capture(m, opt, meta)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// saveWorld runs one full sharded save: `world` goroutines, each
// persisting its shard of the same snapshot through a shared
// StoreCommitter — the in-process analogue of `world` ranks saving in
// parallel.
func saveWorld(t testing.TB, w *Writer, snap *Snapshot, world int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = w.Save(snap, r, world, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d save: %v", r, err)
		}
	}
}

func newTestWriter(t testing.TB, dir string) *Writer {
	t.Helper()
	return &Writer{
		Dir:       dir,
		Committer: &StoreCommitter{St: store.NewInMem(10 * time.Second), Timeout: 10 * time.Second},
	}
}

func paramsOf(m nn.Module) []float32 {
	var out []float32
	for _, p := range m.Parameters() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, opt := newTestState(t, 1)
	meta := Meta{Step: 7, Generation: 2, World: 3, Seed: 42}
	w := newTestWriter(t, dir)
	saveWorld(t, w, captureTest(t, m, opt, meta), 3)

	m2, opt2 := newTestState(t, 99) // different init and momentum
	got, err := Restore(dir, m2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("restored meta %+v, want %+v", got, meta)
	}
	if !sameFloats(paramsOf(m2), paramsOf(m)) {
		t.Fatal("restored parameters differ from saved")
	}
	if !sameFloats(opt2.FlatState(), opt.FlatState()) {
		t.Fatal("restored optimizer state differs from saved")
	}
}

func TestCheckpointReshardAcrossWorldSizes(t *testing.T) {
	// Save sharded N ways, restore with no knowledge of N: the manifest
	// alone reconstructs the blob, so a differently-sized (or
	// single-process) successor world reads it identically.
	m, opt := newTestState(t, 3)
	want := paramsOf(m)
	for _, world := range []int{1, 2, 3, 5, 8} {
		dir := t.TempDir()
		w := newTestWriter(t, dir)
		saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 5, World: world}), world)
		m2, opt2 := newTestState(t, 77)
		meta, err := Restore(dir, m2, opt2)
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		if meta.Step != 5 || meta.World != world {
			t.Fatalf("world %d: restored meta %+v", world, meta)
		}
		if !sameFloats(paramsOf(m2), want) {
			t.Fatalf("world %d: restored parameters differ", world)
		}
	}
}

func TestShardRangeCoversBlobExactly(t *testing.T) {
	for _, blobLen := range []int64{0, 1, 7, 52, 1 << 20} {
		for _, world := range []int{1, 2, 3, 7, 64} {
			var next int64
			for r := 0; r < world; r++ {
				off, n := ShardRange(blobLen, r, world)
				if off != next || n < 0 {
					t.Fatalf("blob %d world %d rank %d: range (%d,%d), want offset %d", blobLen, world, r, off, n, next)
				}
				next += n
			}
			if next != blobLen {
				t.Fatalf("blob %d world %d: shards cover %d", blobLen, world, next)
			}
		}
	}
}

func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, dir)
	w.Keep = 2
	m, opt := newTestState(t, 1)
	for step := int64(1); step <= 5; step++ {
		saveWorld(t, w, captureTest(t, m, opt, Meta{Step: step, World: 2}), 2)
	}
	names, err := manifestNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retention kept %d manifests (%v), want 2", len(names), names)
	}
	meta, err := LatestMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 5 {
		t.Fatalf("latest checkpoint at step %d, want 5", meta.Step)
	}
	// Shards of pruned checkpoints are gone too.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if g, s, ok := parseCheckpointName(e.Name()); ok && s < 4 {
			t.Errorf("stale file survived retention: %s (g%d s%d)", e.Name(), g, s)
		}
	}
}

func TestCheckpointRetentionIgnoresCorruptManifests(t *testing.T) {
	// Keep=2 defends against at-rest corruption only if a corrupt
	// manifest cannot occupy a retention slot: with checkpoints at
	// steps 10 and 20 and the step-20 manifest bit-flipped, the save at
	// step 30 must retain {10, 30} — not evict the run's only valid
	// fallback in favour of the corpse.
	dir := t.TempDir()
	w := newTestWriter(t, dir)
	w.Keep = 2
	m, opt := newTestState(t, 1)
	wantOld := paramsOf(m)
	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 10, World: 2}), 2)
	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 20, World: 2}), 2)

	path := filepath.Join(dir, manifestFileName(0, 20))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 30, World: 2}), 2)

	// Step 10 survived retention...
	if _, err := os.Stat(filepath.Join(dir, manifestFileName(0, 10))); err != nil {
		t.Fatalf("valid fallback checkpoint was evicted by a corrupt manifest: %v", err)
	}
	// ...and is actually reachable when step 30 is damaged too.
	if err := os.Remove(filepath.Join(dir, manifestFileName(0, 30))); err != nil {
		t.Fatal(err)
	}
	m2, opt2 := newTestState(t, 50)
	meta, err := Restore(dir, m2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 10 {
		t.Fatalf("restored step %d, want fallback to 10", meta.Step)
	}
	if !sameFloats(paramsOf(m2), wantOld) {
		t.Fatal("fallback checkpoint not bitwise intact")
	}
}

func TestLoadEmptyAndMissingDir(t *testing.T) {
	if _, _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := Load(filepath.Join(t.TempDir(), "never-created")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: %v, want ErrNoCheckpoint", err)
	}
}

// corruptions is the table of ways a checkpoint can be damaged on disk.
// Every case must (a) make that checkpoint fail validation loudly, and
// (b) leave the previous committed checkpoint fully loadable.
var corruptions = []struct {
	name    string
	damage  func(t *testing.T, dir string, m *Manifest)
	errWant string // substring the loud failure must contain
}{
	{
		name: "truncated shard",
		damage: func(t *testing.T, dir string, m *Manifest) {
			path := filepath.Join(dir, m.Shards[1].File)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		errWant: "truncated",
	},
	{
		name: "bit-flipped shard payload",
		damage: func(t *testing.T, dir string, m *Manifest) {
			path := filepath.Join(dir, m.Shards[0].File)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[shardHeaderLen+int(m.Shards[0].Length)/2] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		errWant: "crc32",
	},
	{
		name: "missing manifest",
		damage: func(t *testing.T, dir string, m *Manifest) {
			name := manifestFileName(m.Meta.Generation, m.Meta.Step)
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		},
		errWant: "", // no manifest: the checkpoint simply is not committed
	},
	{
		name: "manifest references absent shard",
		damage: func(t *testing.T, dir string, m *Manifest) {
			if err := os.Remove(filepath.Join(dir, m.Shards[2].File)); err != nil {
				t.Fatal(err)
			}
		},
		errWant: "no such file",
	},
	{
		name: "bit-flipped manifest",
		damage: func(t *testing.T, dir string, m *Manifest) {
			path := filepath.Join(dir, manifestFileName(m.Meta.Generation, m.Meta.Step))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		errWant: "corrupt",
	},
}

func TestCheckpointCorruptionFallsBackToPrevious(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := newTestWriter(t, dir)
			m, opt := newTestState(t, 1)
			wantOld := paramsOf(m)
			// Two committed checkpoints: step 10 (will stay good) and
			// step 20 (will be damaged). Different model states so a
			// wrong pick is detectable.
			saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 10, World: 3}), 3)
			for _, p := range m.Parameters() {
				p.Grad = tensor.Ones(p.Value.Shape()...)
			}
			opt.Step()
			opt.ZeroGrad()
			saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 20, World: 3}), 3)

			_, newest, err := Load(dir)
			if err != nil || newest.Meta.Step != 20 {
				t.Fatalf("precondition: newest = %+v, err %v", newest, err)
			}
			tc.damage(t, dir, newest)

			// The damaged checkpoint must not load; the run falls back
			// to the previous committed one, bitwise intact.
			m2, opt2 := newTestState(t, 50)
			meta, err := Restore(dir, m2, opt2)
			if err != nil {
				t.Fatalf("fallback restore failed: %v", err)
			}
			if meta.Step != 10 {
				t.Fatalf("restored step %d, want fallback to 10", meta.Step)
			}
			if !sameFloats(paramsOf(m2), wantOld) {
				t.Fatal("fallback checkpoint not bitwise intact")
			}
		})
	}
}

func TestCheckpointCorruptionFailsLoudlyWhenNoFallback(t *testing.T) {
	for _, tc := range corruptions {
		if tc.errWant == "" {
			continue // removing the only manifest is a cold start, not corruption
		}
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := newTestWriter(t, dir)
			m, opt := newTestState(t, 1)
			saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 20, World: 3}), 3)
			_, newest, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir, newest)
			_, _, err = Load(dir)
			if err == nil {
				t.Fatal("corrupted sole checkpoint loaded successfully")
			}
			if errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("corruption reported as cold start: %v", err)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

func TestTornCommitIsNeverLoaded(t *testing.T) {
	// Simulate the all-ranks-die-mid-save crash: shards (some of them)
	// and a .tmp- manifest exist, but the rename never happened. The
	// directory must read as the previous checkpoint.
	dir := t.TempDir()
	w := newTestWriter(t, dir)
	m, opt := newTestState(t, 1)
	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 10, World: 2}), 2)

	// Hand-craft the torn step-20 save: one shard of two, plus a
	// manifest that only reached its tmp name.
	snap := captureTest(t, m, opt, Meta{Step: 20, World: 2})
	blob := snap.Bytes()
	off, n := ShardRange(int64(len(blob)), 0, 2)
	if _, err := writeShardFile(dir, shardHeader{
		Version: FormatVersion, Step: 20, World: 2, Rank: 0,
		Offset: uint64(off), Length: uint64(n),
	}, blob[off:off+n]); err != nil {
		t.Fatal(err)
	}
	enc, err := encodeManifest(&Manifest{Version: FormatVersion, Meta: snap.Meta, World: 2, BlobBytes: int64(len(blob))})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+manifestFileName(0, 20)), enc, 0o644); err != nil {
		t.Fatal(err)
	}

	meta, err := LatestMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 10 {
		t.Fatalf("torn commit was loaded: restored step %d, want 10", meta.Step)
	}
}

func TestAsyncWriterCommitsInOrderAndDrains(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, dir)
	w.Keep = 10
	m, opt := newTestState(t, 1)
	aws := make([]*AsyncWriter, 2)
	for r := range aws {
		aws[r] = NewAsyncWriter(w)
	}
	for step := int64(1); step <= 4; step++ {
		snap := captureTest(t, m, opt, Meta{Step: step, World: 2})
		for r, aw := range aws {
			if err := aw.Submit(snap, r, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, aw := range aws {
		if err := aw.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := manifestNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("%d checkpoints committed (%v), want 4", len(names), names)
	}
	meta, err := LatestMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 4 {
		t.Fatalf("latest step %d, want 4", meta.Step)
	}
}

func TestAbandonedSaveLeavesNoCommit(t *testing.T) {
	// Rank 0 alone saves a 2-world checkpoint; rank 1's shard never
	// arrives. Canceling must abandon the save (ErrAbandoned) and leave
	// the directory without a new commit.
	dir := t.TempDir()
	w := newTestWriter(t, dir)
	m, opt := newTestState(t, 1)
	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 5, World: 2}), 2)

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.Save(captureTest(t, m, opt, Meta{Step: 9, World: 2}), 0, 2, cancel)
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	if err := <-done; !errors.Is(err, ErrAbandoned) {
		t.Fatalf("canceled save returned %v, want ErrAbandoned", err)
	}
	meta, err := LatestMeta(dir)
	if err != nil || meta.Step != 5 {
		t.Fatalf("directory shows step %d err %v, want committed step 5 only", meta.Step, err)
	}
}

func TestStateBlobIsDeterministicAcrossCaptures(t *testing.T) {
	// The sharded format is sound only if every rank produces the same
	// blob bytes for the same logical state; two independent captures of
	// equal state stand in for two ranks.
	mA, optA := newTestState(t, 4)
	mB, optB := newTestState(t, 4)
	a := captureTest(t, mA, optA, Meta{Step: 3, World: 2})
	b := captureTest(t, mB, optB, Meta{Step: 3, World: 2})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equal training state produced different blobs")
	}
}

// ---- benchmarks ------------------------------------------------------------

// benchStep stands in for a training step's compute so the benchmark
// measures checkpoint overhead relative to real work on the hot path.
func benchStep(m nn.Module, opt *optim.SGD) {
	for _, p := range m.Parameters() {
		if p.Grad == nil {
			p.Grad = tensor.Ones(p.Value.Shape()...)
		}
	}
	opt.Step()
	opt.ZeroGrad()
}

// BenchmarkSyncVsAsyncSave quantifies tentpole claim (3): the per-step
// overhead of periodic checkpointing (every benchSaveEvery steps, the
// realistic cadence) when the persistence runs synchronously in-loop
// (capture + fsync + commit on the hot path) vs asynchronously (only
// the capture memcpy on the hot path). One op is one training step;
// compare both against the nosave baseline.
func BenchmarkSyncVsAsyncSave(b *testing.B) {
	const benchSaveEvery = 25
	mkModel := func() (nn.Module, *optim.SGD) {
		m := models.NewMLP(1, 64, 256, 10)
		opt := optim.NewSGD(m.Parameters(), 0.1)
		opt.Momentum = 0.9
		return m, opt
	}
	b.Run("sync", func(b *testing.B) {
		m, opt := mkModel()
		w := newTestWriter(b, b.TempDir())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchStep(m, opt)
			if (i+1)%benchSaveEvery == 0 {
				snap := captureTest(b, m, opt, Meta{Step: int64(i + 1), World: 1})
				if err := w.Save(snap, 0, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		m, opt := mkModel()
		w := newTestWriter(b, b.TempDir())
		aw := NewAsyncWriter(w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchStep(m, opt)
			if (i+1)%benchSaveEvery == 0 {
				snap := captureTest(b, m, opt, Meta{Step: int64(i + 1), World: 1})
				if err := aw.Submit(snap, 0, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if err := aw.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("nosave", func(b *testing.B) {
		m, opt := mkModel()
		for i := 0; i < b.N; i++ {
			benchStep(m, opt)
		}
	})
}

// TestCheckpointRestoreDuringConcurrentRetentionSweep races Keep-based
// pruning against restores: while a saver commits a stream of new
// checkpoints (each Save triggering the retention sweep), concurrent
// readers Load and Restore nonstop. Because prune removes a victim's
// manifest before its shards, a reader must never observe a
// half-deleted candidate — every Load succeeds, lands on a committed
// step, and round-trips the exact saved bits. This is the
// goroutine-interleaved extension of the corruption tables: the
// "corruption" here is a sweep caught mid-unlink, and -race patrols
// the interleavings.
func TestCheckpointRestoreDuringConcurrentRetentionSweep(t *testing.T) {
	dir := t.TempDir()
	rng := testutil.SeededRand(t)
	m, opt := newTestState(t, 5)
	wantParams := paramsOf(m)
	wantOpt := opt.FlatState()

	w := newTestWriter(t, dir)
	w.Keep = 3

	const rounds = 30
	// Seed the directory so readers always have something committed.
	saveWorld(t, w, captureTest(t, m, opt, Meta{Step: 1, World: 1}), 1)

	stop := make(chan struct{})
	var readerErr error
	var readerOnce sync.Once
	var wg sync.WaitGroup
	reader := func(restoreEvery int) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if restoreEvery > 0 && i%restoreEvery == 0 {
				m2, opt2 := newTestState(t, 99)
				meta, err := Restore(dir, m2, opt2)
				if err != nil {
					readerOnce.Do(func() { readerErr = err })
					return
				}
				if meta.Step < 1 || meta.Step > rounds+1 {
					readerOnce.Do(func() { readerErr = errors.New("restored step out of committed range") })
					return
				}
				if !sameFloats(paramsOf(m2), wantParams) || !sameFloats(opt2.FlatState(), wantOpt) {
					readerOnce.Do(func() { readerErr = errors.New("restore observed torn checkpoint state") })
					return
				}
				continue
			}
			if _, _, err := Load(dir); err != nil {
				readerOnce.Do(func() { readerErr = err })
				return
			}
		}
	}
	wg.Add(2)
	go reader(0) // Load-only hot loop
	go reader(1) // full Restore every iteration

	for step := int64(2); step <= rounds+1; step++ {
		// Vary the world so sweeps delete different shard layouts.
		world := 1 + rng.Intn(3)
		saveWorld(t, w, captureTest(t, m, opt, Meta{Step: step, World: world}), world)
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatalf("concurrent restore observed a half-deleted checkpoint: %v", readerErr)
	}
}
