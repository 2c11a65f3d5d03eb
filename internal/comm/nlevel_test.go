package comm

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// The three-level layouts of this file, shared with the static schedule
// checker and the short-frame test.
var (
	// Two pods, two racks each, two ranks per host on pod p0 and one on
	// p1 — uneven on purpose.
	nLevelUnevenHosts = []string{
		"p0/r0/h0", "p0/r0/h0", // ranks 0,1
		"p0/r1/h1", "p0/r1/h1", // ranks 2,3
		"p1/r2/h2", // rank 4
		"p1/r3/h3", // rank 5
	}
	// Two pods of two racks of one two-rank host each.
	nLevelPodHosts = []string{"p0/r0/h0", "p0/r0/h0", "p0/r1/h1", "p0/r1/h1", "p1/r2/h2", "p1/r2/h2", "p1/r3/h3", "p1/r3/h3"}
)

// TestTopologyNLevels pins the structured-label parser and the derived
// per-level machinery the N-level schedule walks.
func TestTopologyNLevels(t *testing.T) {
	topo := NewTopology(nLevelUnevenHosts)
	if topo.Levels() != 3 {
		t.Fatalf("Levels() = %d, want 3", topo.Levels())
	}
	if topo.Size() != 6 || topo.numHosts() != 4 {
		t.Fatalf("size=%d hosts=%d", topo.Size(), topo.numHosts())
	}
	for l, want := range []int{2, 4, 4} {
		if got := topo.numGroups(l); got != want {
			t.Fatalf("NumGroups(%d) = %d, want %d", l, got, want)
		}
	}
	if !topo.Hierarchical() {
		t.Fatal("three-level layout misclassified")
	}
	if got := topo.levelLeaders(0); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("pod leaders = %v", got)
	}
	if got := topo.leaders(); !reflect.DeepEqual(got, []int{0, 2, 4, 5}) {
		t.Fatalf("host leaders = %v", got)
	}
	// Phase participants: host level = members, rack level = host
	// leaders within the rack, pod level = rack leaders within the pod.
	if got := topo.phaseParticipants(2, 1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("host phase of rank 1 = %v", got)
	}
	if got := topo.phaseParticipants(1, 0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("rack phase of rank 0 = %v", got)
	}
	if got := topo.phaseParticipants(0, 0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("pod phase of rank 0 = %v", got)
	}
	if got := topo.phaseParticipants(0, 4); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Fatalf("pod phase of rank 4 = %v", got)
	}
	if s := topo.String(); s != "6 ranks / 3 levels (2/4/4 groups)" {
		t.Fatalf("String() = %q", s)
	}

	// Non-uniform component counts degrade to opaque single-level
	// labels instead of guessing a hierarchy.
	mixed := NewTopology([]string{"p0/h0", "h1", "p0/h0"})
	if mixed.Levels() != 1 {
		t.Fatalf("mixed labels: Levels() = %d, want 1", mixed.Levels())
	}
	if mixed.numHosts() != 2 || !reflect.DeepEqual(mixed.hostRanks(0), []int{0, 2}) {
		t.Fatalf("mixed labels grouped wrong: hosts=%d", mixed.numHosts())
	}

	// Unstructured labels keep the PR 4 behavior bit for bit.
	two := NewTopology([]string{"a", "a", "b"})
	if two.Levels() != 1 || two.String() != "3 ranks / 2 hosts (2+1)" {
		t.Fatalf("unstructured labels: levels=%d String=%q", two.Levels(), two.String())
	}
}

// levelCountingMesh tallies payload bytes crossing level-0 (pod)
// boundaries — the most expensive links of a structured topology.
type levelCountingMesh struct {
	transport.Mesh
	topo  *Topology
	cross *atomic.Int64
}

func (c *levelCountingMesh) Send(to int, tag uint64, data []float32) error {
	if c.topo.levelIdx[0][c.Rank()] != c.topo.levelIdx[0][to] {
		c.cross.Add(int64(4 * len(data)))
	}
	return c.Mesh.Send(to, tag, data)
}

// TestNLevelHierarchicalShedsCrossPodBytes: with a three-level
// topology, only the pod leaders' top ring crosses pod boundaries, so
// the N-level schedule must move strictly (and substantially) fewer
// bytes over pod links than the flat ring AND than the two-level
// schedule run on the same placement (whose host-leader ring still
// crosses pods for every host).
func TestNLevelHierarchicalShedsCrossPodBytes(t *testing.T) {
	const world, n = 8, 4096
	three := nLevelPodHosts
	flatLabels := make([]string, world)
	for r := 0; r < world; r++ {
		// Same host grouping, no rack/pod structure: the two-level
		// schedule rings ALL four host leaders.
		flatLabels[r] = three[r][len(three[r])-2:]
	}
	podTopo := NewTopology(three)
	measure := func(algo Algorithm, topo *Topology) int64 {
		var cross atomic.Int64
		meshes := transport.NewInProcMeshes(world)
		groups := make([]ProcessGroup, world)
		for r := range groups {
			groups[r] = NewGroup(&levelCountingMesh{Mesh: meshes[r], topo: podTopo, cross: &cross}, Options{Algorithm: algo, Topology: topo})
		}
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			buf := make([]float32, n)
			return g.AllReduce(buf, Sum).Wait()
		})
		closeAll(groups)
		return cross.Load()
	}
	ring := measure(Ring, nil)
	twoLevel := measure(Hierarchical, NewTopology(flatLabels))
	nLevel := measure(Hierarchical, podTopo)
	if nLevel >= twoLevel || twoLevel >= ring {
		t.Fatalf("cross-pod bytes: ring=%d two-level=%d n-level=%d (want strictly decreasing)", ring, twoLevel, nLevel)
	}
	// Structurally: the three-level top ring is 2 pod leaders swapping
	// ~one buffer each, the two-level leader ring is 4 leaders of which
	// every hop between rack 1 and rack 2 crosses pods.
	if ratio := float64(twoLevel) / float64(nLevel); ratio < 1.5 {
		t.Fatalf("n-level saved only %.2fx vs two-level", ratio)
	}
}
