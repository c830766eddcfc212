package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the CLI entry over fixture packages under testdata/
// (which `./...` never matches, so the deliberate findings stay out of
// the module's own lint runs): the text format on dirty and clean
// trees, the exit-code contract, and the driver error path.
func TestRun(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		wantExit int
		wantOut  []string // substrings of stdout, in order
		wantErr  string   // substring of stderr, empty = none
	}{
		{
			name:     "text findings",
			patterns: []string{"./testdata/src/demo"},
			wantExit: 1,
			wantOut: []string{
				"testdata/src/demo/demo.go:7:1: ndlint: unknown //ndlint:cachelin directive",
				"testdata/src/demo/demo.go:11:6: padalign: short is marked //ndlint:cacheline but is 24 bytes",
			},
			wantErr: "ndlint: 2 finding(s)",
		},
		{
			name:     "clean text",
			patterns: []string{"./testdata/src/clean"},
			wantExit: 0,
		},
		{
			name:     "unloadable pattern is a driver error",
			patterns: []string{"./testdata/src/no-such-pkg"},
			wantExit: 2,
			wantErr:  "ndlint:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			exit := run(tc.patterns, &out, &errw)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", exit, tc.wantExit, out.String(), errw.String())
			}
			rest := out.String()
			for _, want := range tc.wantOut {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("stdout missing %q (or out of order)\nstdout:\n%s", want, out.String())
				}
				rest = rest[i+len(want):]
			}
			if tc.wantErr == "" {
				if errw.Len() != 0 {
					t.Fatalf("unexpected stderr: %s", errw.String())
				}
			} else if !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, errw.String())
			}
		})
	}
}
