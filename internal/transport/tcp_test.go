package transport

import (
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
