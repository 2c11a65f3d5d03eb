// Package fixture seeds storeerr violations: dropped errors at store,
// transport, elastic rendezvous, checkpoint, and written-file call
// sites.
package fixture

import (
	"os"

	"repro/internal/ckpt"
	"repro/internal/elastic"
	"repro/internal/store"
	"repro/internal/transport"
)

func dropStoreErrors(st store.Store) {
	st.Set("k", nil)    //lint:want storeerr
	_ = st.Delete("k")  //lint:want storeerr
	st.Wait("k")        //lint:want storeerr
	v, _ := st.Get("k") //lint:want storeerr
	_ = v
}

func dropInGoAndDefer(st store.Store) {
	go st.Set("k", nil)                       //lint:want storeerr
	defer st.Delete("k")                      //lint:want storeerr
	_, _ = st.Add("n", 1)                     //lint:want storeerr
	ok, _ := st.CompareAndSwap("k", nil, nil) //lint:want storeerr
	_ = ok
}

func dropRendezvousErrors(r *elastic.Rendezvous) {
	g, _ := r.CurrentGeneration() //lint:want storeerr
	r.ProposeGeneration(g)        //lint:want storeerr
	go r.WaitGenerationAbove(g)   //lint:want storeerr
}

func dropTransportErrors(m transport.Mesh) {
	m.Send(1, 7, nil)   //lint:want storeerr
	_, _ = m.Recv(1, 7) //lint:want storeerr
	if a, ok := m.(transport.Aborter); ok {
		a.Abort() //lint:want storeerr
	}
}

func dropCheckpointClose(w *ckpt.AsyncWriter) {
	w.Close() //lint:want storeerr
}

func deferCloseWrittenFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:want storeerr
	_, err = f.Write(data)
	return err
}

func deferCloseOpenFileWrite(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() //lint:want storeerr
	return nil
}
