package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSubjects are the seven TaxDC bugs of the paper's Table 4.
var goldenSubjects = []string{"CA-1011", "HB-4539", "HB-4729", "MR-3274", "MR-4637", "ZK-1144", "ZK-1270"}

// goldenModes are the runs that ask the HB graph point queries: trigger
// placement (-validate) and pair provenance (-explain), the latter on both
// the selective and the unselective (-full) trace.
var goldenModes = []struct {
	name string
	args []string
}{
	{"validate", []string{"-validate"}},
	{"explain0", []string{"-explain", "0"}},
	{"full-explain1", []string{"-full", "-explain", "1"}},
}

// runMain runs the command in-process with args and returns its stdout.
// Every mode pinned here exits through main's normal return.
func runMain(t *testing.T, args []string) []byte {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedArgs, savedFlags, savedStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = savedArgs, savedFlags, savedStdout }()
	os.Args = append([]string{"dcatch"}, args...)
	flag.CommandLine = flag.NewFlagSet("dcatch", flag.ExitOnError)
	os.Stdout = out
	main()
	os.Stdout = savedStdout
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenReports pins the output of every point-query consumer on the
// seven subjects byte for byte. Regenerate with
//
//	go test ./cmd/dcatch -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	for _, id := range goldenSubjects {
		for _, m := range goldenModes {
			name := id + "." + m.name
			t.Run(name, func(t *testing.T) {
				got := runMain(t, append([]string{"-bench", id}, m.args...))
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("dcatch %s differs from %s:\n%s", strings.Join(m.args, " "), path, got)
				}
			})
		}
	}
}
