// Command ddptrain seeds onespawn violations: child processes started
// past the one spawn site, called, aliased or taken as a value. Every
// use is reported once there is more than one.
package main

import (
	"context"
	"os"
	"os/exec"
)

// The spawn site.
var command = func(args ...string) *exec.Cmd { return exec.Command(os.Args[0], args...) } //lint:want onespawn

// A second call in run: what the grep caught.
func run() error {
	return exec.Command("sh", "-c", "true").Run() //lint:want onespawn
}

// The context form, taken as a value to call later.
var withContext = exec.CommandContext //lint:want onespawn

func main() {
	_ = command
	_ = run()
	_ = withContext(context.Background(), "true")
	_ = launch()
	_ = dotted()
}
