package transport

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func TestTCPMeshDerivesHosts(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	const world = 3
	meshes := make([]Mesh, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			meshes[r], errs[r] = NewTCPMesh(r, world, st, "hosts-test")
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer meshes[r].Close()
	}
	for r, m := range meshes {
		hl, ok := m.(HostLister)
		if !ok {
			t.Fatalf("rank %d: TCP mesh does not implement HostLister", r)
		}
		hosts := hl.Hosts()
		if len(hosts) != world {
			t.Fatalf("rank %d: %d host labels for world %d", r, len(hosts), world)
		}
		for peer, h := range hosts {
			// Everything runs on loopback here, so every derived label
			// must agree — the single-host case hierarchical collapses on.
			if h != "127.0.0.1" {
				t.Fatalf("rank %d: host of rank %d = %q, want 127.0.0.1", r, peer, h)
			}
		}
	}
}

func TestSingletonTCPMeshHasHosts(t *testing.T) {
	st := store.NewInMem(time.Second)
	defer st.Close()
	m, err := NewTCPMesh(0, 1, st, "single")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if hosts := m.(HostLister).Hosts(); len(hosts) != 1 {
		t.Fatalf("singleton hosts = %v", hosts)
	}
}

// setRecorder is a store that notes every key set on it.
type setRecorder struct {
	store.Store
	keys []string
}

func (s *setRecorder) Set(key string, value []byte) error {
	s.keys = append(s.keys, key)
	return s.Store.Set(key, value)
}

// openFiles counts this process's open file descriptors; -1 where the
// system does not list them.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestTCPMeshRefusesOutOfRangeRank: a rank outside the mesh — any rank
// of a mesh of size below one — is an error, returned before the mesh listens or publishes
// its address, not an index panic after it has done both (nor, at size
// 1, a silent renumbering to rank 0).
func TestTCPMeshRefusesOutOfRangeRank(t *testing.T) {
	for _, c := range []struct {
		rank, size int
		want       string
	}{
		{0, 0, "rank 0 outside a mesh of size 0"},
		{0, -1, "rank 0 outside a mesh of size -1"},
		{2, 2, "rank 2 outside a mesh of size 2"},
		{-1, 2, "rank -1 outside a mesh of size 2"},
		{1, 1, "rank 1 outside a mesh of size 1"},
	} {
		mem := store.NewInMem(time.Second)
		st := &setRecorder{Store: mem}
		before := openFiles()
		m, err := NewTCPMesh(c.rank, c.size, st, "refuse")
		if err == nil {
			m.Close()
			t.Errorf("rank %d of %d: built a mesh", c.rank, c.size)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("rank %d of %d: error %q does not say %q", c.rank, c.size, err, c.want)
		}
		if len(st.keys) != 0 {
			t.Errorf("rank %d of %d: set store keys %v", c.rank, c.size, st.keys)
		}
		if after := openFiles(); after != before {
			t.Errorf("rank %d of %d: %d open files before, %d after", c.rank, c.size, before, after)
		}
		mem.Close()
	}
}
