package main

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestNodesUsageError runs the command in a child process (this test
// binary re-executed with the command's arguments after "--"): a
// machine size below 1 is a usage error, exit status 2 with the
// CheckNodes message, on the application and the -load path alike. So
// is a non-zero -fifo or -duqueue outside its knob's domain: the error
// names the knob rather than the run silently using the default.
func TestNodesUsageError(t *testing.T) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"shrimpsim"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "radix-vmmc", "-quick", "-nodes", "0"}, "nodes must be >= 1"},
		{[]string{"-app", "radix-vmmc", "-quick", "-nodes", "-3"}, "nodes must be >= 1"},
		{[]string{"-load", "rpc/polling", "-quick", "-nodes", "0"}, "nodes must be >= 1"},
		{[]string{"-app", "radix-vmmc", "-quick", "-fifo", "-5"}, "knob out_fifo_bytes must be >= 1"},
		{[]string{"-app", "radix-vmmc", "-quick", "-duqueue", "-1"}, "knob du_queue_depth must be >= 1"},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestNodesUsageError$", "--"}, args...)...)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("shrimpsim %s: err %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("shrimpsim %s: output %q lacks the usage error", strings.Join(args, " "), out)
		}
	}
}
