package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain turns this test binary into tereplay when TEREPLAY_MAIN is set:
// runTereplay re-executes it with that variable holding the arguments, so a
// test sees main's real output and exit status. tereplay parses the global
// flag set, which holds the test binary's own flags, so the child starts
// from an empty one.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TEREPLAY_MAIN"); ok {
		os.Args = append([]string{"tereplay"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("tereplay", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTereplay runs `tereplay args` and returns its stdout, its stderr and
// its exit status.
func runTereplay(t *testing.T, args string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TEREPLAY_MAIN="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("tereplay %s: %v", args, err)
	return "", "", 0
}

// wallTimes matches the three wall-clock percentiles of a `tier latency`
// line, the only values of a replay that depend on the host.
var wallTimes = regexp.MustCompile(`p50=\S+ p99=\S+ p999=\S+`)

// TestReplayPinned replays a short trace and compares everything tereplay
// prints — the timeline, the NormMLU summary, the tier census, the serving,
// fleet and cache summaries and the disaster drill — with a golden file,
// the latency percentiles masked (their sample counts are kept). Both
// cases run at the fleet's and server's defaults apart from their flags.
func TestReplayPinned(t *testing.T) {
	for _, tc := range []struct{ args, golden string }{
		{"-snapshots 90 -epochs 3 -replicas 3 -scenario auto", "replay_fleet_scenario.golden"},
		{"-snapshots 90 -epochs 3 -cache-entries 16", "replay_cache.golden"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := runTereplay(t, tc.args)
			if code != 0 || stderr != "" {
				t.Fatalf("tereplay %s: exit status %d, stderr:\n%s", tc.args, code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := wallTimes.ReplaceAllString(stdout, "p50=… p99=… p999=…"); got != string(want) {
				t.Errorf("tereplay %s: output differs from testdata/%s; got:\n%s", tc.args, tc.golden, got)
			}
		})
	}
}

// TestTooFewSnapshotsFails: a trace whose every cluster is used for
// training leaves nothing to replay, and tereplay says so and exits 1.
func TestTooFewSnapshotsFails(t *testing.T) {
	t.Parallel()
	_, stderr, code := runTereplay(t, "-snapshots 20 -epochs 1")
	if code != 1 || !strings.Contains(stderr, "tereplay: no test snapshots") {
		t.Fatalf("tereplay -snapshots 20: exit status %d, stderr:\n%s", code, stderr)
	}
}
