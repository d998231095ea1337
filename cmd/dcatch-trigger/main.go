// Command dcatch-trigger runs the triggering module's stand-alone TCP
// message-controller server for manually instrumented systems (paper §5.1):
// each party sends a REQUEST at its point and a CONFIRM after it, and the
// server grants the two parties in the configured order. Validating a
// benchmark's reports is dcatch -bench <id> -validate.
//
// Usage:
//
//	dcatch-trigger -serve 127.0.0.1:9999 -first A -second B [-debug-addr 127.0.0.1:6060]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dcatch/internal/obs"
	"dcatch/internal/trigger"
)

func main() {
	var (
		serve     = flag.String("serve", "", "run the TCP controller server on this address")
		first     = flag.String("first", "A", "party granted first")
		second    = flag.String("second", "B", "party granted second")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar (/debug/pprof/, /debug/vars) on this address")
		version   = flag.Bool("version", false, "print the tool version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}
	if *serve == "" {
		flag.Usage()
		os.Exit(2)
	}
	runServer(*serve, *first, *second, *debugAddr)
}

func runServer(addr, first, second, debugAddr string) {
	srv, err := trigger.NewServer(addr, first, second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("controller listening on %s; grant order: %s then %s\n", srv.Addr(), first, second)
	if debugAddr != "" {
		trigger.RegisterDebug(srv)
		bound, err := trigger.StartDebug(debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("debug endpoint on http://%s/debug/pprof/ and /debug/vars\n", bound)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	srv.Close()
	fmt.Println("\nexplored order:")
	for _, l := range srv.Log() {
		fmt.Printf("  %s\n", l)
	}
}
