// Package fixture exercises the driver's //ddplint:ignore handling:
// well-formed pragmas suppress findings (and are counted); malformed
// ones, misspelled ones and ones that suppress nothing are themselves
// reported.
package fixture

import "repro/internal/store"

func suppressedAbove(st store.Store) {
	//ddplint:ignore storeerr fixture: best-effort write, loss is acceptable here
	st.Set("k", nil)
}

func suppressedSameLine(st store.Store) {
	st.Delete("k") //ddplint:ignore storeerr fixture: cleanup of an already-dead key
}

func malformedPragma(st store.Store) {
	//ddplint:ignore storeerr
	st.Watch("k", nil)
}

func misspelledPragma(st store.Store) {
	//ddplint:ignore storerr fixture: a misspelled name suppresses nothing
	st.Set("k", nil)
}

func stalePragma(st store.Store) error {
	//ddplint:ignore storeerr fixture: the line below checks its error
	return st.Set("k", nil)
}
