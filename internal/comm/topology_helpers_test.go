package comm

// The Topology views below are what the tests check layouts with; the
// schedules read the fields they are built from.

// numHosts returns the number of distinct hosts (deepest-level groups).
func (t *Topology) numHosts() int { return len(t.groups) }

// numGroups returns the number of distinct groups at the given level
// (0 = outermost).
func (t *Topology) numGroups(level int) int { return len(t.levelGroups[level]) }

// hostOf returns rank's full host label.
func (t *Topology) hostOf(rank int) string { return t.hosts[rank] }

// hostRanks returns the ranks sharing rank's host, in ascending order,
// its leader first.
func (t *Topology) hostRanks(rank int) []int { return t.groups[t.hostIdx[rank]] }

// leaders returns the lowest rank on each host, in ascending order.
func (t *Topology) leaders() []int { return t.levelLeaders(t.levels - 1) }
