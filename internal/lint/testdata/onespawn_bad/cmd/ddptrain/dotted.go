package main

import . "os/exec"

// A dot import: the call names no package at all.
func dotted() error {
	return Command("true").Start() //lint:want onespawn
}
