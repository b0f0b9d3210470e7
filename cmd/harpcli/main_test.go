package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestKBelowOneIsAUsageError runs harpcli's main in a child process (this
// test binary, re-entered through HARPCLI_MAIN) for every subcommand that
// computes tunnels: -k 0 and -k -1 exit with status 2 and a message naming
// the flag, before any topology or model is touched.
func TestKBelowOneIsAUsageError(t *testing.T) {
	if args := os.Getenv("HARPCLI_MAIN"); args != "" {
		os.Args = append([]string{"harpcli"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"train -k 0", "train -k -1", "eval -model absent.gob -k 0", "eval -model absent.gob -k -1",
		"search -k 0", "search -k -3",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestKBelowOneIsAUsageError$")
		cmd.Env = append(os.Environ(), "HARPCLI_MAIN="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("harpcli %s: err %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "-k must be at least 1") {
			t.Errorf("harpcli %s: output does not name the flag:\n%s", args, out)
		}
	}
}
