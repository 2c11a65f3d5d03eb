package comm

import (
	"fmt"
	"strings"
)

// Topology maps every rank of a process group to its place in the
// cluster's physical hierarchy — the placement information
// topology-aware collectives need. The paper's Section 6.1 "Resource
// Allocation" observation motivates it: a flat ring that spans machine
// boundaries forces every server's NIC to carry the crossing edges of
// all concurrent rings, collapsing per-ring bandwidth to
// NIC/GPUsPerServer. Knowing which ranks share a host lets the
// Hierarchical algorithm keep most traffic on the fast intra-host
// links and send only one rank's worth of data per host across the
// network.
//
// Labels may be structured: "/"-separated components describe an
// N-level hierarchy outermost-first, e.g. "pod0/rack1/hostA" places a
// rank in pod0, rack rack1 within it, and host hostA within that.
// Level 0 groups ranks by the first component, level 1 by the first
// two, and so on; the deepest level (the full label) is the host. A
// label without "/" is the plain two-level host/world model of PR 4.
// Labels whose component counts disagree are treated as opaque
// single-level host names. The N-level Hierarchical schedule reduces
// onto group leaders level by level from the hosts outward, rings the
// outermost leaders, and broadcasts back down (see
// hierarchicalAllReduce).
//
// A Topology is immutable after construction. Hosts are compared as
// opaque labels; ranks sharing a label are assumed to share fast local
// connectivity. Three sources produce one:
//
//   - comm.Options.Topology, set explicitly by the caller (in-proc
//     meshes and tests use this to lay out simulated hosts);
//   - transport meshes that know peer placement (TCP meshes implement
//     transport.HostLister from the rendezvous addresses);
//   - elastic rendezvous rounds, whose members publish their host so
//     regenerated groups stay topology-aware (elastic.Assignment.Hosts).
//     Structured labels pass through rendezvous unchanged, so a
//     regenerated group rebuilds the full hierarchy.
type Topology struct {
	hosts   []string // full (possibly structured) host label per rank
	hostIdx []int    // index into groups per rank
	groups  [][]int  // ranks per host, ordered by each host's lowest rank

	levels int // hierarchy depth (1 for unstructured labels)
	// levelGroups[l] are the rank groups sharing their first l+1 label
	// components, each ascending, ordered by lowest rank; levelIdx[l][r]
	// is rank r's group index at level l. levelGroups[levels-1] is the
	// host level and aliases groups.
	levelGroups [][][]int
	levelIdx    [][]int
}

// NewTopology builds a Topology from per-rank host labels: hosts[r] is
// the label of the machine rank r runs on, optionally "/"-structured
// (outermost level first). The slice is copied.
func NewTopology(hosts []string) *Topology {
	t := &Topology{
		hosts: append([]string(nil), hosts...),
	}
	split := make([][]string, len(t.hosts))
	t.levels = 1
	uniform := true
	for r, h := range t.hosts {
		split[r] = strings.Split(h, "/")
		if r > 0 && len(split[r]) != len(split[0]) {
			uniform = false
		}
	}
	if uniform && len(split) > 0 {
		t.levels = len(split[0])
	}
	t.levelGroups = make([][][]int, t.levels)
	t.levelIdx = make([][]int, t.levels)
	for l := 0; l < t.levels; l++ {
		t.levelIdx[l] = make([]int, len(t.hosts))
		seen := make(map[string]int, len(t.hosts))
		for r := range t.hosts {
			key := t.hosts[r]
			if uniform {
				key = strings.Join(split[r][:l+1], "/")
			}
			i, ok := seen[key]
			if !ok {
				i = len(t.levelGroups[l])
				seen[key] = i
				t.levelGroups[l] = append(t.levelGroups[l], nil)
			}
			t.levelIdx[l][r] = i
			t.levelGroups[l][i] = append(t.levelGroups[l][i], r)
		}
	}
	t.groups = t.levelGroups[t.levels-1]
	t.hostIdx = t.levelIdx[t.levels-1]
	return t
}

// Size returns the number of ranks the topology covers.
func (t *Topology) Size() int { return len(t.hosts) }

// Levels returns the hierarchy depth: 1 for plain host labels, the
// number of "/"-separated components for structured ones.
func (t *Topology) Levels() int { return t.levels }

// Hosts returns a copy of the per-rank host labels.
func (t *Topology) Hosts() []string { return append([]string(nil), t.hosts...) }

// levelLeaders returns one rank per level-l group — each group's lowest
// rank — in ascending order. Level 0's leaders form the top ring of the
// N-level Hierarchical schedule.
func (t *Topology) levelLeaders(l int) []int {
	leaders := make([]int, len(t.levelGroups[l]))
	for i, g := range t.levelGroups[l] {
		leaders[i] = g[0]
	}
	return leaders
}

// levelGroupOf returns rank's group at level l (ascending, shared —
// callers must not mutate).
func (t *Topology) levelGroupOf(l, rank int) []int {
	return t.levelGroups[l][t.levelIdx[l][rank]]
}

// phaseParticipants returns the ranks taking part in the level-l
// reduce/broadcast phase of rank's level-l group: every member at the
// deepest level, one leader per child group above it. Because groups
// nest, the leader of a level-l group is also the leader of its own
// child group at every deeper level, so each rank's participation
// levels form the contiguous range phase code walks.
func (t *Topology) phaseParticipants(l, rank int) []int {
	group := t.levelGroupOf(l, rank)
	if l == t.levels-1 {
		return group
	}
	parts := make([]int, 0, len(group))
	for _, r := range group {
		if t.levelGroupOf(l+1, r)[0] == r {
			parts = append(parts, r)
		}
	}
	return parts
}

// MultiHost reports whether the topology spans more than one host.
func (t *Topology) MultiHost() bool { return len(t.groups) > 1 }

// Flat reports whether every host holds exactly one rank — the layout
// in which a hierarchy has nothing to exploit and Hierarchical
// degenerates to a plain ring over all ranks.
func (t *Topology) Flat() bool { return len(t.groups) == len(t.hosts) }

// Hierarchical reports whether the hierarchy can beat a flat ring:
// more than one host, and at least one host holding several ranks (so
// the intra-host phases actually shed cross-machine traffic).
func (t *Topology) Hierarchical() bool { return t.MultiHost() && !t.Flat() }

// String renders the layout compactly, e.g. "6 ranks / 3 hosts (3+2+1)"
// or, for a structured hierarchy, "8 ranks / 3 levels (2/4/8 groups)".
func (t *Topology) String() string {
	if t.levels > 1 {
		counts := make([]string, t.levels)
		for l := range counts {
			counts[l] = fmt.Sprint(len(t.levelGroups[l]))
		}
		return fmt.Sprintf("%d ranks / %d levels (%s groups)", len(t.hosts), t.levels, strings.Join(counts, "/"))
	}
	sizes := make([]string, len(t.groups))
	for i, g := range t.groups {
		sizes[i] = fmt.Sprint(len(g))
	}
	return fmt.Sprintf("%d ranks / %d hosts (%s)", len(t.hosts), len(t.groups), strings.Join(sizes, "+"))
}
