// Paper-tables regenerates the DCatch paper's evaluation tables (§7,
// Tables 3–9) against the mini subject systems.
//
//	go run ./examples/paper-tables      # every table
//	go run ./examples/paper-tables 5    # one table
package main

import (
	"fmt"
	"os"

	"dcatch/internal/bench"
)

func main() {
	tables := map[string]func() (string, error){
		"3": func() (string, error) { return bench.Table3(), nil },
		"4": bench.Table4, "5": bench.Table5, "6": bench.Table6,
		"7": bench.Table7, "8": bench.Table8, "9": bench.Table9,
	}
	render := bench.All
	if len(os.Args) > 1 {
		if render = tables[os.Args[1]]; render == nil || len(os.Args) > 2 {
			fmt.Fprintln(os.Stderr, "usage: paper-tables [3-9]")
			os.Exit(2)
		}
	}
	out, err := render()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}
