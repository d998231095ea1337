// Command dcatch-trigger runs the triggering module's stand-alone TCP
// message-controller server for manually instrumented systems (paper §5.1):
// each party sends a REQUEST at its point and a CONFIRM after it, and the
// server grants the parties in the configured order. Validating a
// benchmark's reports is dcatch -bench <id> -validate.
//
// Usage:
//
//	dcatch-trigger -serve 127.0.0.1:9999 -order A,B[,C...] [-debug-addr 127.0.0.1:6060]
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"dcatch/internal/obs"
	"dcatch/internal/trigger"
)

func main() {
	var (
		serve     = flag.String("serve", "", "run the TCP controller server on this address")
		orderFlag = flag.String("order", "A,B", "comma-separated parties in grant order (at least 2, distinct)")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar (/debug/pprof/, /debug/vars) on this address")
		version   = flag.Bool("version", false, "print the tool version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}
	order, err := trigger.ParseOrder(*orderFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if err != nil || *serve == "" {
		flag.Usage()
		os.Exit(2)
	}
	srv, err := trigger.NewServer(*serve, order...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("controller listening on %s; grant order: %s\n", srv.Addr(), strings.Join(order, " then "))
	if *debugAddr != "" {
		bound, err := startDebug(srv, *debugAddr)
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
	for _, l := range srv.Stats().EventLog {
		fmt.Printf("  %s\n", l)
	}
}

// startDebug publishes srv's protocol state as the "dcatch_trigger" expvar
// and serves pprof and expvar (the shared obs.DebugMux) on addr in a
// background goroutine, returning the bound address. It may be called once
// per process.
func startDebug(srv *trigger.Server, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dcatch-trigger: debug listen: %w", err)
	}
	expvar.Publish("dcatch_trigger", expvar.Func(func() any { return srv.Stats() }))
	go http.Serve(ln, obs.DebugMux(nil))
	return ln.Addr().String(), nil
}
