package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain turns this test binary into harpcli when HARPCLI_MAIN is set:
// runHarpcli re-executes it with that variable holding the arguments, so a
// test sees main's real output and exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HARPCLI_MAIN"); ok {
		os.Args = append([]string{"harpcli"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHarpcli runs `harpcli args` in dir and returns its combined output and
// exit status.
func runHarpcli(t *testing.T, dir, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "HARPCLI_MAIN="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("harpcli %s: %v", args, err)
	return "", 0
}

// TestKBelowOneIsAUsageError: for every subcommand that computes tunnels,
// -k 0 and -k -1 exit with status 2 and a message naming the flag, before
// any topology or model is touched.
func TestKBelowOneIsAUsageError(t *testing.T) {
	for _, args := range []string{
		"train -k 0", "train -k -1", "eval -model absent.gob -k 0", "eval -model absent.gob -k -1",
		"search -k 0", "search -k -3",
	} {
		out, code := runHarpcli(t, "", args)
		if code != 2 {
			t.Errorf("harpcli %s: exit status %d, want 2; output:\n%s", args, code, out)
			continue
		}
		if !strings.Contains(out, "-k must be at least 1") {
			t.Errorf("harpcli %s: output does not name the flag:\n%s", args, out)
		}
	}
}

// TestSubcommandsEndToEnd runs every subcommand once, in order, in one
// directory: dump writes the cluster files, train reads one cluster back
// through -topofile/-tmfile and saves a model, info and eval load it, and
// search runs the quick grid. Each must exit 0 and print its summary lines.
func TestSubcommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []struct {
		args string
		want []string
	}{
		{"dump -dir .", []string{"400 snapshots in 27 clusters written to ."}},
		{"train -topofile cluster00.topo -tmfile cluster00.tms -epochs 2 -out m.gob",
			[]string{"topology AnonNet: 14 nodes", "test NormMLU: n=", "model saved to m.gob"}},
		{"info -model m.gob", []string{"parameters: 2571"}},
		{"eval -model m.gob -topo abilene -tms 4 -fail 0,1 -report",
			[]string{"failed link 0<->1", "NormMLU over 4 matrices:", "worst single-link failures"}},
		{"search -topo abilene -tms 8 -epochs 1",
			[]string{"the 8-point quick grid on Abilene", "rank  val-MLU  gnn  settrans  rau  lr      batch  params\n   1  "}},
	} {
		out, code := runHarpcli(t, dir, step.args)
		if code != 0 {
			t.Fatalf("harpcli %s: exit status %d; output:\n%s", step.args, code, out)
		}
		for _, want := range step.want {
			if !strings.Contains(out, want) {
				t.Errorf("harpcli %s: output lacks %q:\n%s", step.args, want, out)
			}
		}
	}
}
