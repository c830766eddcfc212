package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunViews renders every view of one builder and checks each is a
// non-trivial DOT digraph, distinct from the others.
func TestRunViews(t *testing.T) {
	seen := map[string]string{}
	for _, v := range views {
		var out, errw bytes.Buffer
		args := []string{"-algo", "LCS", "-n", "8", "-base", "2", "-view", v.name}
		if exit := run(args, &out, &errw); exit != 0 {
			t.Fatalf("-view %s: exit %d, stderr: %s", v.name, exit, errw.String())
		}
		dot := out.String()
		if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
			t.Fatalf("-view %s: not a DOT digraph with edges:\n%s", v.name, dot)
		}
		if prev, dup := seen[dot]; dup {
			t.Fatalf("-view %s renders the same graph as -view %s", v.name, prev)
		}
		seen[dot] = v.name
	}
}

// TestRunBadFlags checks the usage-error exit code: an unknown view
// names the valid ones, and the removed boolean view flags are rejected.
func TestRunBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if exit := run([]string{"-view", "bogus"}, &out, &errw); exit != 2 {
		t.Fatalf("unknown view: exit %d, want 2", exit)
	}
	if msg := errw.String(); !strings.Contains(msg, `unknown view "bogus"`) || !strings.Contains(msg, "tree, leafdag, wake, prio") {
		t.Fatalf("unknown view: stderr does not name the valid views: %s", msg)
	}
	if out.Len() != 0 {
		t.Fatalf("unknown view wrote to stdout: %s", out.String())
	}
	for _, args := range [][]string{{"-wake"}, {"-model", "XY"}, {"-algo", "nope"}} {
		errw.Reset()
		if exit := run(args, &out, &errw); exit != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, exit, errw.String())
		}
	}
}
