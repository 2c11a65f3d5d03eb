package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// uniform is the link on which every frame costs alpha plus its bytes
// over beta.
func uniform(alpha, beta float64) Hop {
	return func(_, _, bytes int) float64 { return alpha + float64(bytes)/beta }
}

// TestWalkFinishesEveryGenerator: every generator the static checker
// covers — the ring AllReduce (the pair exchange at two ranks), the
// ReduceScatterV and AllGatherV passes, Tree, DoubleTree, Hierarchical
// over two and three label levels, Naive, AllGather and Broadcast —
// walks to the end of every rank's list at worlds 1-33, on links whose
// cost depends on the pair; and a list that waits for a frame nobody
// sends is reported blocked, not priced.
func TestWalkFinishesEveryGenerator(t *testing.T) {
	hop := func(from, to, bytes int) float64 { return 1e-6*float64(1+(from+2*to)%5) + float64(bytes)/1e9 }
	// stuck walks gen over k ranks and returns what the walk panicked
	// with, nil if every rank reached its end.
	stuck := func(k int, gen func(r int) []step) (err any) {
		defer func() { err = recover() }()
		walk(k, gen, hop)
		return nil
	}
	for k := 1; k <= 33; k++ {
		twoLevel, threeLevel := make([]string, k), make([]string, k)
		for r := range k {
			twoLevel[r] = fmt.Sprint("h", r/3)
			threeLevel[r] = fmt.Sprintf("p%d/r%d/h%d", r/8, r/4, r/2)
		}
		for _, n := range []int{0, 1, k + 1, 2*doubleTreeChunkElems + 1, ringPairMaxElems + 1} {
			top := func(me, k int) []step { return ringAllReduceSteps(me, k, n) }
			gens := map[string]func(r int) []step{
				"ring":            func(r int) []step { return ringAllReduceSteps(r, k, n) },
				"reduce-scatter":  func(r int) []step { return ringSteps(r, k, n, r-1, true) },
				"all-gather":      func(r int) []step { return ringSteps(r, k, n, r, false) },
				"tree":            func(r int) []step { return treeSteps(r, k, n) },
				"double tree":     func(r int) []step { return doubleTreeSteps(r, k, n) },
				"two-level":       func(r int) []step { return hierarchicalSteps(r, n, NewTopology(twoLevel), top) },
				"three-level":     func(r int) []step { return hierarchicalSteps(r, n, NewTopology(threeLevel), top) },
				"naive":           func(r int) []step { return naiveSteps(r, k, n) },
				"allgather":       func(r int) []step { return allGatherSteps(r, k, n) },
				"broadcast mid":   func(r int) []step { return binomialBroadcastSteps(r, k, n, k/2) },
				"broadcast from0": func(r int) []step { return binomialBroadcastSteps(r, k, n, 0) },
			}
			for name, gen := range gens {
				if err := stuck(k, gen); err != nil {
					t.Fatalf("%s k=%d n=%d: %v", name, k, n, err)
				}
			}
		}
	}
	deaf := func(r int) []step { return []step{{to: -1, from: 1 - r, rHi: 1}} }
	if err := stuck(2, deaf); !strings.Contains(fmt.Sprint(err), "blocked") {
		t.Fatalf("two ranks waiting on each other walked on (%v), want blocked", err)
	}
}

// TestWalkExactOnUniformLink: on a uniform link (alpha, beta) the walk
// is the closed form wherever one exists. The ring over k >= 3 ranks
// with n divisible by k is 2(k-1) dependent hops of an n/k chunk; the
// two-rank pair is one hop of the whole buffer; a broadcast over 2^m
// ranks is m hops; and Naive, which posts its sends to every peer at
// once, is one hop of the whole buffer.
func TestWalkExactOnUniformLink(t *testing.T) {
	const alpha, beta = 9e-6, 40e9
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	for k := 3; k <= 33; k++ {
		for _, n := range []int{k, 1000 * k, ringPairMaxElems / k * k} {
			want := 2 * float64(k-1) * (alpha + 4*float64(n)/(float64(k)*beta))
			if got := WalkAllReduce(Ring, nil, k, n, uniform(alpha, beta)); !near(got, want) {
				t.Fatalf("ring k=%d n=%d: walked %v, want %v", k, n, got, want)
			}
		}
	}
	for _, n := range []int{1, 4096, ringPairMaxElems} {
		want := alpha + 4*float64(n)/beta
		if got := WalkAllReduce(Ring, nil, 2, n, uniform(alpha, beta)); !near(got, want) {
			t.Fatalf("pair n=%d: walked %v, want %v", n, got, want)
		}
	}
	for k := 2; k <= 9; k++ {
		const n = 4096
		if got, want := WalkAllReduce(Naive, nil, k, n, uniform(alpha, beta)), alpha+4*n/beta; !near(got, want) {
			t.Fatalf("naive k=%d: walked %v, want %v", k, got, want)
		}
	}
	for m := 1; m <= 6; m++ {
		const n = 4096
		want := float64(m) * (alpha + 4*n/beta)
		if got := walk(1<<m, func(r int) []step { return binomialBroadcastSteps(r, 1<<m, n, 0) }, uniform(alpha, beta)); !near(got, want) {
			t.Fatalf("broadcast over %d ranks: walked %v, want %v", 1<<m, got, want)
		}
	}
}

// TestWalkRules pins the two rules a uniform link cannot show: a frame
// waits for its directed link to be free, and a step that receives ends
// no earlier than its own send lands.
func TestWalkRules(t *testing.T) {
	slow := func(from, to, _ int) float64 {
		if from == 0 && to == 1 {
			return 5
		}
		return 1
	}
	// Two frames posted back to back on one link: the second leaves when
	// the first lands.
	queued := func(r int) []step {
		if r == 0 {
			return []step{{to: 1, from: -1, sHi: 1}, {to: 1, from: -1, sHi: 1}}
		}
		return []step{{to: -1, from: 0, rHi: 1}, {to: -1, from: 0, rHi: 1}}
	}
	if got := walk(2, queued, slow); got != 10 {
		t.Fatalf("two frames on one link: walked %v, want 10", got)
	}
	// Rank 0 ships to 1 (5) while taking 2's frame (1), then ships to 2:
	// that send leaves at 5, when its step's own send has landed.
	joined := func(r int) []step {
		switch r {
		case 0:
			return []step{{to: 1, from: 2, sHi: 1, rHi: 1}, {to: 2, from: -1, sHi: 1}}
		case 1:
			return []step{{to: -1, from: 0, rHi: 1}}
		}
		return []step{{to: 0, from: -1, sHi: 1}, {to: -1, from: 0, rHi: 1}}
	}
	if got := walk(3, joined, slow); got != 6 {
		t.Fatalf("send after a joined step: walked %v, want 6", got)
	}
}
