// Package testonly is imported by tests alone, so what it exports needs
// no non-test caller.
package testonly

// Helper is for tests.
func Helper() int { return 1 }
