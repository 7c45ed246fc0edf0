package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the syncsim command: with
// SYNCSIM_RUN_MAIN set, the process runs main on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SYNCSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncsim runs the command with args and returns its stdout, stderr and
// exit code.
func syncsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SYNCSIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("syncsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// TestFlagsOutOfRange feeds syncsim out-of-range workload flags. Each
// must stop the command before any run, with a non-zero exit and a
// message naming the flag, instead of a panic inside a runner, an
// impossible increment total, a silently defaulted processor count, or
// a different workload than the one asked for.
func TestFlagsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-kind", "barrier", "-episodes", "-1"}, "-episodes"},
		{[]string{"-kind", "lock", "-faults", "L2", "-iters", "-1"}, "-iters"},
		{[]string{"-kind", "counter", "-incs", "-1"}, "-incs"},
		{[]string{"-procs", "0"}, "-procs"},
		{[]string{"-kind", "rw", "-readfrac", "1.5"}, "-readfrac"},
		{[]string{"-kind", "rw", "-readfrac", "-0.1"}, "-readfrac"},
		{[]string{"-kind", "rw", "-readfrac", "NaN"}, "-readfrac"},
		{[]string{"-kind", "rw", "-iters", "0"}, "-iters"},
		{[]string{"-kind", "sem", "-items", "0"}, "-items"},
		{[]string{"-kind", "lock", "-cs", "-1"}, "-cs"},
		{[]string{"-kind", "lock", "-think", "-1"}, "-think"},
	} {
		stdout, stderr, code := syncsim(t, c.args...)
		name := strings.Join(c.args, " ")
		if code == 0 {
			t.Errorf("%s: exit 0, want non-zero", name)
		}
		if !strings.Contains(stderr, c.flag+" ") || strings.Contains(stderr, "panic") {
			t.Errorf("%s: stderr %q does not reject %s", name, stderr, c.flag)
		}
		if stdout != "" {
			t.Errorf("%s: ran a workload before rejecting it:\n%s", name, stdout)
		}
	}
}

// TestFlagsAtBounds runs the smallest accepted values: a count of 1, no
// critical-section or think time, and both ends of -readfrac.
func TestFlagsAtBounds(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "lock", "-algos", "tas", "-procs", "1", "-iters", "1", "-cs", "0", "-think", "0"},
		{"-kind", "barrier", "-algos", "central", "-procs", "2", "-episodes", "1"},
		{"-kind", "rw", "-algos", "rw-ctr", "-procs", "2", "-iters", "1", "-readfrac", "0"},
		{"-kind", "rw", "-algos", "rw-ctr", "-procs", "2", "-iters", "1", "-readfrac", "1"},
		{"-kind", "sem", "-algos", "sem-central", "-procs", "2", "-items", "1"},
		{"-kind", "counter", "-algos", "ctr-fa", "-procs", "2", "-incs", "1"},
	} {
		stdout, stderr, code := syncsim(t, args...)
		name := strings.Join(args, " ")
		if code != 0 || stdout == "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want a run and exit 0", name, code, stdout, stderr)
		}
	}
}

// TestFaults drives -faults: a faulted lock run prints one outcome per
// selected lock, a faulted barrier run completes, and an unsupported
// kind or an unknown level stops the command with a message naming
// what is supported.
func TestFaults(t *testing.T) {
	stdout, stderr, code := syncsim(t, "-kind", "lock", "-faults", "R1", "-algos", "tas-deadline,lease-fence,qheal",
		"-procs", "8", "-iters", "20")
	if code != 0 || strings.Count(stdout, "  outcome:") != 3 {
		t.Errorf("faulted lock run: exit %d, stderr %q, want three outcome lines in:\n%s", code, stderr, stdout)
	}
	for _, lock := range []string{"tas-deadline", "lease-fence", "qheal"} {
		if !strings.Contains(stdout, "lock="+lock+" ") {
			t.Errorf("faulted lock run printed no result for %s:\n%s", lock, stdout)
		}
	}
	if stdout, stderr, code := syncsim(t, "-kind", "barrier", "-faults", "L2", "-algos", "central,reconf",
		"-procs", "8", "-episodes", "10"); code != 0 || strings.Count(stdout, "  outcome:") != 2 {
		t.Errorf("faulted barrier run: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "rw", "-faults", "L2"}, "-kind lock and barrier"},
		{[]string{"-faults", "bogus"}, "known: L0 L1 L2 L3 R1 R2"},
	} {
		name := strings.Join(c.args, " ")
		stdout, stderr, code := syncsim(t, c.args...)
		if code == 0 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stderr %q; want non-zero and %q", name, code, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%s: ran a workload before rejecting it:\n%s", name, stdout)
		}
	}
}
