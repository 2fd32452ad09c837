package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateArgs pins the upfront validation: unknown experiment IDs and a
// negative -timeout fail with a usage message before any experiment runs.
func TestValidateArgs(t *testing.T) {
	known := []string{"exp2", "fig7c", "fig7e"}
	cases := []struct {
		name    string
		ids     []string
		timeout time.Duration
		want    string // substring of the usage message; "" means valid
	}{
		{name: "all known", ids: []string{"fig7c", "exp2"}},
		{name: "empty runs everything", ids: nil},
		{name: "with timeout", ids: []string{"exp2"}, timeout: 30 * time.Second},
		{name: "typo in last id", ids: []string{"exp2", "fig7x"}, want: `unknown experiment "fig7x"`},
		{name: "negative timeout", ids: []string{"exp2"}, timeout: -time.Second, want: "-timeout -1s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := validateArgs(tc.ids, known, tc.timeout)
			if tc.want == "" {
				if got != "" {
					t.Fatalf("validateArgs = %q, want valid", got)
				}
				return
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("validateArgs = %q, want it to mention %q", got, tc.want)
			}
		})
	}
}

// TestUsageLineMentionsEveryFlag keeps the usage message in sync with the
// flags main registers.
func TestUsageLineMentionsEveryFlag(t *testing.T) {
	for _, f := range []string{"-quick", "-json", "-timeout", "-list"} {
		if !strings.Contains(usageLine, f) {
			t.Errorf("usage line does not mention %s: %q", f, usageLine)
		}
	}
}
