// Package fixture holds store/transport/ckpt call sites the storeerr
// analyzer must accept: every error is checked or propagated, and
// read-only file closes stay deferrable.
package fixture

import (
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/elastic"
	"repro/internal/store"
	"repro/internal/transport"
)

func checkedStore(st store.Store) error {
	if err := st.Set("k", nil); err != nil {
		return err
	}
	v, err := st.Get("k")
	if err != nil {
		return err
	}
	_ = v
	n, err := st.Add("n", 1)
	if err != nil {
		return fmt.Errorf("add: %w", err)
	}
	_ = n
	return st.Delete("k")
}

func checkedRendezvous(r *elastic.Rendezvous) error {
	g, err := r.CurrentGeneration()
	if err != nil {
		return err
	}
	_, err = r.ProposeGeneration(g)
	return err
}

func checkedTransport(m transport.Mesh) error {
	if err := m.Send(1, 7, nil); err != nil {
		return err
	}
	data, err := m.Recv(1, 7)
	if err != nil {
		return err
	}
	_ = data
	return nil
}

func checkedCheckpoint(w *ckpt.AsyncWriter) error {
	if err := w.Sync(); err != nil {
		return err
	}
	return w.Close()
}

func explicitCloseWrittenFile(path string, data []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // write error already reported; close is cleanup
		return err
	}
	return f.Close()
}

// readOnlyDeferClose: Close on a file opened read-only has no write to
// lose; deferring it is fine.
func readOnlyDeferClose(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
