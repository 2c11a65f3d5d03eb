// Command ddptrain is clean under onespawn: one spawn site, the
// os/exec type and its other functions used freely, and a function of
// its own called Command.
package main

import (
	"os"
	"os/exec"
)

var command = func(args ...string) *exec.Cmd { return exec.Command(os.Args[0], args...) }

// Command is this package's own.
func Command() string { return "train" }

func main() {
	var cmd *exec.Cmd = command(Command())
	if _, err := exec.LookPath(os.Args[0]); err == nil {
		_ = cmd.Run()
	}
}
