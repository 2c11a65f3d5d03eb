// Package comm holds exports another package must name: one its own
// package alone calls is one too many.
package comm

// Exported is named by cmd/ddpbench.
func Exported() { helper() }

// Helper is called only inside comm.
func Helper() {} //lint:want callers

func helper() { Helper() }
