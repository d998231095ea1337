package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface pins the command's sorted flag names in
// testdata/flags.golden, so adding or removing a flag is a deliberate change
// to that file.
func TestFlagSurface(t *testing.T) {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	savedArgs, savedFlags, savedStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = savedArgs, savedFlags, savedStdout }()
	os.Args = []string{"dcatch-trace", "-version"}
	flag.CommandLine = flag.NewFlagSet("dcatch-trace", flag.ExitOnError)
	os.Stdout = devNull
	main()
	var names []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	got := strings.Join(names, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("flags differ from testdata/flags.golden:\n-- got --\n%s-- want --\n%s", got, want)
	}
}
