package main

import osexec "os/exec"

// A renamed import.
func launch() error {
	return osexec.Command("true").Start() //lint:want onespawn
}
