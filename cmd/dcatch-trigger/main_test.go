package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcatch/internal/trigger"
)

// The debug endpoint publishes an expvar, which a process can do once, so
// every run of TestDebugEndpoint shares one server and endpoint.
var (
	debugOnce sync.Once
	debugSrv  *trigger.Server
	debugAddr string
	debugErr  error
)

// TestDebugEndpoint checks the -debug-addr surface: /debug/vars carries the
// server's snapshot as the dcatch_trigger expvar and /debug/pprof/ serves
// the profile index.
func TestDebugEndpoint(t *testing.T) {
	debugOnce.Do(func() {
		if debugSrv, debugErr = trigger.NewServer("127.0.0.1:0", "A", "B", "C"); debugErr == nil {
			debugAddr, debugErr = startDebug(debugSrv, "127.0.0.1:0")
		}
	})
	if debugErr != nil {
		t.Fatal(debugErr)
	}
	srv, addr := debugSrv, debugAddr

	body := get(t, fmt.Sprintf("http://%s/debug/vars", addr))
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, body)
	}
	raw, ok := vars["dcatch_trigger"]
	if !ok {
		t.Fatalf("/debug/vars lacks dcatch_trigger: %s", body)
	}
	var stats trigger.ServerStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Addr != srv.Addr() || !slices.Equal(stats.Order, []string{"A", "B", "C"}) {
		t.Fatalf("dcatch_trigger = %s, want addr %s and order [A B C]", raw, srv.Addr())
	}

	if idx := get(t, fmt.Sprintf("http://%s/debug/pprof/", addr)); !strings.Contains(string(idx), "goroutine") {
		t.Fatalf("pprof index not served: %s", idx)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// TestMalformedOrderExits2 runs the command (this test binary re-executed
// with the command's arguments after "--") on orders with fewer than two
// parties, an empty party or a duplicate, and expects exit status 2.
func TestMalformedOrderExits2(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"dcatch-trigger"}, args...)
		flag.CommandLine = flag.NewFlagSet("dcatch-trigger", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, order := range []string{"A", "", "A,,B", "A,B,A", "A, B"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMalformedOrderExits2$", "--",
			"-serve", "127.0.0.1:0", "-order", order)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "order") {
			t.Errorf("-order %q: %v, output %q; want exit 2 naming the order", order, err, out)
		}
	}
}
