package main

import (
	"bytes"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dcatch/internal/cluster"
	"dcatch/internal/hb"
	"dcatch/internal/testtrace"
)

// runEnv, when set in a test binary's environment, makes the binary run
// the command itself on its arguments instead of the tests.
const runEnv = "DCATCH_TRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) != "" {
		flag.CommandLine = flag.NewFlagSet("dcatch-trace", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command (this test binary re-executed) with args and
// returns its stdout, stderr and exit status.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestFollowPeersSharded pins that -peers is honoured by -follow as by
// -analyze: both print the single-node chunked report over the same
// options, with every window scanned by one of two in-process workers, and
// say so on stderr.
func TestFollowPeersSharded(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(3000, 11)
	const chunk = 500
	budget, err := testtrace.IncrMemBudget(tr, chunk, hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := os.WriteFile(path, tr.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var peers []string
	for range 2 {
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ScanPath, cluster.NewWorker(cluster.WorkerConfig{Scans: 2}))
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	analysis := []string{"-chunk", strconv.Itoa(chunk), "-mem-budget", strconv.FormatInt(budget, 10)}

	if _, _, code := runCmd(t, "-analyze", "-mem-budget", analysis[3], path); code != 1 {
		t.Fatalf("unchunked -analyze exited %d, want 1: the budget must force windows", code)
	}
	want, stderr, code := runCmd(t, append(append([]string{"-analyze"}, analysis...), path)...)
	if code != 0 {
		t.Fatalf("single-node chunked -analyze exited %d: %s", code, stderr)
	}
	windows := regexp.MustCompile(`cluster: \d+ windows \(\d+ remote, 0 local, \d+ cached\)`)
	for _, mode := range []string{"-analyze", "-follow"} {
		args := append([]string{mode, "-peers", strings.Join(peers, ",")}, analysis...)
		got, stderr, code := runCmd(t, append(args, path)...)
		if code != 0 {
			t.Fatalf("%s -peers exited %d: %s", mode, code, stderr)
		}
		if got != want {
			t.Errorf("%s -peers stdout differs from the single-node chunked report:\n-- got --\n%s-- want --\n%s", mode, got, want)
		}
		if !windows.MatchString(stderr) {
			t.Errorf("%s -peers stderr has no all-remote window line:\n%s", mode, stderr)
		}
	}
}

// TestAnalysisFlagsNeedMode: a flag that only means something in an
// analysis mode is refused, with the usage line and exit status 2, rather
// than dropped while the breakdown prints.
func TestAnalysisFlagsNeedMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := os.WriteFile(path, testtrace.SyntheticTraceBounded(100, 1).Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-chunk", "10"},
		{"-mem-budget", "4096"},
		{"-peers", "http://127.0.0.1:1"},
		{"-scancache-dir", filepath.Join(t.TempDir(), "sc")},
		{"-scancache-mem", "4096"},
		{"-scancache-disk", "4096"},
		{"-dump", "-chunk", "10"},
		{"-poll", "1s"},
		{"-idle-timeout", "1s"},
		{"-analyze", "-poll", "1s"},
		{"-analyze", "-idle-timeout", "1s"},
	} {
		stdout, stderr, code := runCmd(t, append(args, path)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: dcatch-trace") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with the usage line", args, code, stdout, stderr)
		}
	}
}
