package chaos

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestNormalizeIdempotent is the normal-form contract: whatever goes
// in, Normalize's output must Validate (i.e. re-normalizing changes
// nothing). Fuzzed over both schedule sources.
func TestNormalizeIdempotent(t *testing.T) {
	rng := testutil.SeededRand(t)
	for i := 0; i < 200; i++ {
		s := Schedule{
			Seed:      int64(i),
			World:     rng.Intn(8) - 1,
			Steps:     rng.Int63n(30) - 2,
			CkptEvery: rng.Int63n(6) - 1,
		}
		if rng.Intn(2) == 0 {
			s.Codec = []string{"1bit", "2bit", "zlib"}[rng.Intn(3)]
		}
		n := rng.Intn(9)
		kinds := []EventKind{EvKill, EvKillMidStep, EvLeave, EvJoin, EvKillAll,
			EvStraggle, EvHang, EvPartition, EvDiskFault, EvSlowDisk, EventKind("bogus")}
		for j := 0; j < n; j++ {
			s.Events = append(s.Events, Event{
				Kind:   kinds[rng.Intn(len(kinds))],
				Worker: rng.Intn(7) - 1,
				Step:   rng.Int63n(20) - 3,
				Count:  rng.Int63n(10) - 1,
				SlowMs: rng.Intn(400) - 10,
			})
		}
		if _, err := Validate(Normalize(s)); err != nil {
			t.Fatalf("Normalize not idempotent on %+v: %v", s, err)
		}
	}
}

// TestFromBytesNormalForm: every byte string must decode to a schedule
// the corpus contract accepts — the native fuzz target depends on it.
func TestFromBytesNormalForm(t *testing.T) {
	rng := testutil.SeededRand(t)
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(26))
		rng.Read(buf)
		s := FromBytes(buf)
		if _, err := Validate(s); err != nil {
			t.Fatalf("FromBytes(%v) not normal form: %v\n%s", buf, err, s.Encode())
		}
	}
}

// TestGenerateDeterministic: the seed is the run identity.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := Generate(rand.New(rand.NewSource(seed)), seed)
		b := Generate(rand.New(rand.NewSource(seed)), seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two draws differ:\n%s\n%s", seed, a.Encode(), b.Encode())
		}
		if _, err := Validate(a); err != nil {
			t.Fatalf("seed %d: generated schedule not normal form: %v", seed, err)
		}
	}
}

func TestNormalizeClampsAndDrops(t *testing.T) {
	cases := []struct {
		name string
		in   Schedule
		want func(t *testing.T, out Schedule)
	}{
		{"world-clamped", Schedule{World: 99, Steps: 5}, func(t *testing.T, out Schedule) {
			if out.World != maxWorldBound {
				t.Fatalf("world = %d, want %d", out.World, maxWorldBound)
			}
		}},
		{"steps-clamped", Schedule{World: 2, Steps: 99}, func(t *testing.T, out Schedule) {
			if out.Steps != maxStepsBound {
				t.Fatalf("steps = %d, want %d", out.Steps, maxStepsBound)
			}
		}},
		{"codec-repaired", Schedule{World: 2, Steps: 4, Codec: "zstd"}, func(t *testing.T, out Schedule) {
			if out.Codec != "1bit" {
				t.Fatalf("codec = %q, want 1bit", out.Codec)
			}
		}},
		{"unknown-target-dropped", Schedule{World: 2, Steps: 4, Events: []Event{
			{Kind: EvKill, Worker: 7, Step: 1}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 0 {
				t.Fatalf("events = %+v, want none", out.Events)
			}
		}},
		{"second-kill-all-dropped", Schedule{World: 2, Steps: 6, Events: []Event{
			{Kind: EvKillAll, Step: 2}, {Kind: EvKillAll, Step: 4}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 1 || out.Events[0].Step != 2 {
				t.Fatalf("events = %+v, want one kill-all at step 2", out.Events)
			}
		}},
		{"disk-fault-needs-ckpt", Schedule{World: 2, Steps: 4, Events: []Event{
			{Kind: EvDiskFault, Worker: 0, Step: 1}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 0 {
				t.Fatalf("events = %+v, want none (no checkpointing)", out.Events)
			}
		}},
		{"expensive-budget", Schedule{World: 4, Steps: 6, Events: []Event{
			{Kind: EvHang, Worker: 0, Step: 1},
			{Kind: EvPartition, Worker: 1, Step: 2},
			{Kind: EvHang, Worker: 2, Step: 3}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != maxExpensive {
				t.Fatalf("events = %+v, want %d (expensive budget)", out.Events, maxExpensive)
			}
		}},
		{"join-past-cap-dropped", Schedule{World: 4, Steps: 6, Events: []Event{
			{Kind: EvJoin, Step: 2}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 0 {
				t.Fatalf("events = %+v, want none (world at cap)", out.Events)
			}
		}},
		{"join-ordinal-rewritten", Schedule{World: 2, Steps: 6, Events: []Event{
			{Kind: EvJoin, Worker: 0, Step: 2}, {Kind: EvJoin, Worker: 0, Step: 3}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 2 || out.Events[0].Worker != 2 || out.Events[1].Worker != 3 {
				t.Fatalf("events = %+v, want join ordinals 2 then 3", out.Events)
			}
		}},
		{"last-worker-protected", Schedule{World: 2, Steps: 4, Events: []Event{
			{Kind: EvKill, Worker: 0, Step: 1}, {Kind: EvKill, Worker: 1, Step: 2}}}, func(t *testing.T, out Schedule) {
			if len(out.Events) != 1 {
				t.Fatalf("events = %+v, want only the first kill (final worker protected)", out.Events)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out := Normalize(tc.in)
			if _, err := Validate(out); err != nil {
				t.Fatalf("not normal form: %v", err)
			}
			tc.want(t, out)
		})
	}
}

func TestValidateRejectsRepairable(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"world-too-small", Schedule{World: 1, Steps: 4}},
		{"steps-too-large", Schedule{World: 2, Steps: 99}},
		{"bad-codec", Schedule{World: 2, Steps: 4, Codec: "zstd"}},
		{"dead-target", Schedule{World: 2, Steps: 4, Events: []Event{{Kind: EvKill, Worker: 5, Step: 1}}}},
		{"unsorted-after-normalize", Schedule{World: 3, Steps: 5, Events: []Event{
			{Kind: EvKill, Worker: 0, Step: 3}, {Kind: EvKill, Worker: 1, Step: 1}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Validate(tc.s); err == nil {
				t.Fatalf("Validate accepted %+v", tc.s)
			}
		})
	}
}

// TestPlanPrediction pins the plan's membership timeline on a
// composite schedule: era 0 loses a worker and gains a joiner, a
// kill-all splits the run, era 1 respawns the survivors.
func TestPlanPrediction(t *testing.T) {
	s := Normalize(Schedule{World: 3, Steps: 8, CkptEvery: 2, Events: []Event{
		{Kind: EvKill, Worker: 1, Step: 1},
		{Kind: EvJoin, Step: 2},
		{Kind: EvKillAll, Step: 5},
	}})
	p, err := Validate(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.killAll == nil || p.end0 != 5 {
		t.Fatalf("end0 = %d, want 5 (kill-all step)", p.end0)
	}
	// Step 0: all 3. Step 1: w1 killed before completing -> 2. Step 2:
	// joiner w3 arrives -> 3. Steps 3..4: 3.
	wantW0 := []int{3, 2, 3, 3, 3}
	if !reflect.DeepEqual(p.world0, wantW0) {
		t.Fatalf("world0 = %v, want %v", p.world0, wantW0)
	}
	// Era 1 respawns the active set at the kill-all: {0, 2, 3}.
	if !reflect.DeepEqual(p.respawn, []int{0, 2, 3}) {
		t.Fatalf("respawn = %v, want [0 2 3]", p.respawn)
	}
	if p.world1 == nil || len(p.world1) != int(s.Steps) {
		t.Fatalf("world1 = %v, want len %d", p.world1, s.Steps)
	}
	for st := p.killAll.Step; st < s.Steps; st++ {
		if p.world1[st] != 3 {
			t.Fatalf("world1[%d] = %d, want 3", st, p.world1[st])
		}
	}
	// Fates: w1's era-0 instance killed; the other era-0 instances die
	// in the kill-all; the era-1 respawns run to the end.
	type fate struct {
		exit     exitKind
		exitStep int64
	}
	want := map[[2]int]fate{
		{0, 0}: {exitKilled, -1}, {1, 0}: {exitKilled, -1},
		{2, 0}: {exitKilled, -1}, {3, 0}: {exitKilled, -1},
		{0, 1}: {exitClean, 8}, {2, 1}: {exitClean, 8}, {3, 1}: {exitClean, 8},
	}
	if len(p.workers) != len(want) {
		t.Fatalf("workers = %+v, want %d instances", p.workers, len(want))
	}
	for _, w := range p.workers {
		f, ok := want[[2]int{w.ord, w.era}]
		if !ok {
			t.Fatalf("unexpected instance (ord %d, era %d)", w.ord, w.era)
		}
		if w.exit != f.exit || w.exitStep != f.exitStep {
			t.Fatalf("instance (ord %d, era %d): exit %v/%d, want %v/%d",
				w.ord, w.era, w.exit, w.exitStep, f.exit, f.exitStep)
		}
	}
	// Era-1 respawns must cold-start from the checkpoint.
	for _, w := range p.workers {
		if w.era == 1 && w.joinStep == -1 && !w.resume {
			t.Fatalf("era-1 respawn (ord %d) not marked resume", w.ord)
		}
	}
}

// TestStraggleViability pins the detector-obligation rule: a span is
// only asserted when it is long enough, churn-free, and the stable
// world is at least 3 (at world 2 the median-of-two makes the flag
// arithmetically unreachable).
func TestStraggleViability(t *testing.T) {
	viable := func(s Schedule) bool {
		t.Helper()
		p, err := Validate(Normalize(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.straggle) != 1 {
			t.Fatalf("straggle spans = %+v, want one", p.straggle)
		}
		return p.straggle[0].viable
	}
	base := Schedule{World: 3, Steps: 8, Events: []Event{
		{Kind: EvStraggle, Worker: 1, Step: 2, Count: 5, SlowMs: 30}}}
	if !viable(base) {
		t.Fatal("stable world-3 span not viable")
	}
	atWorld2 := base
	atWorld2.World = 2
	if viable(atWorld2) {
		t.Fatal("world-2 span must not be viable")
	}
	tooShort := Schedule{World: 3, Steps: 8, Events: []Event{
		{Kind: EvStraggle, Worker: 1, Step: 2, Count: 2, SlowMs: 30}}}
	if viable(tooShort) {
		t.Fatal("2-step span must not be viable")
	}
	churned := Schedule{World: 4, Steps: 8, Events: []Event{
		{Kind: EvStraggle, Worker: 1, Step: 2, Count: 5, SlowMs: 30},
		{Kind: EvKill, Worker: 3, Step: 4}}}
	if viable(churned) {
		t.Fatal("span crossing a membership change must not be viable")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Normalize(Schedule{World: 3, Steps: 6, Codec: "1bit", CkptEvery: 2, Events: []Event{
		{Kind: EvStraggle, Worker: 1, Step: 1, Count: 4, SlowMs: 20},
		{Kind: EvKillAll, Step: 4},
	}})
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the schedule:\n%s\n%s", s.Encode(), got.Encode())
	}
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
}
