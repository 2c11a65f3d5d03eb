// Command ddptrain seeds the onespawn violation of no spawn site: a
// launcher that starts nothing through os/exec.
package main //lint:want onespawn

import "os"

func main() { os.Exit(0) }
