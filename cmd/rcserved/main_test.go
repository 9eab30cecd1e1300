package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunRequiresNet(t *testing.T) {
	err := run(nil, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-net is required") {
		t.Fatalf("run() without -net: got %v, want -net is required", err)
	}
}

func TestRunRejectsMissingDir(t *testing.T) {
	if err := run([]string{"-net", t.TempDir()}, os.Stdout); err == nil {
		t.Fatal("run() with empty snapshot dir: want error, got nil")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, os.Stdout); err == nil {
		t.Fatal("run() with unknown flag: want error, got nil")
	}
}

// TestParseTenant: every accepted -tenant key parses, and a key or flag
// the daemon no longer has fails startup instead of being ignored.
func TestParseTenant(t *testing.T) {
	const campus = "../../testdata/campus"
	tc, err := parseTenant("id=acme,net=" + campus + ",policies=" + campus + "/policies.txt,journal=acme.j")
	if err != nil {
		t.Fatal(err)
	}
	if tc.ID != "acme" || tc.Net == nil || len(tc.Net.Devices) == 0 || tc.PolicyText == "" ||
		tc.JournalPath != "acme.j" {
		t.Errorf("parsed tenant = %+v", tc)
	}

	for _, c := range []struct{ spec, want string }{
		{"id=acme,net=" + campus + ",shards=4", `unknown key "shards"`},
		{"id=acme,net=" + campus + ",backend=atom", `unknown key "backend"`},
		{"id=acme,net=" + campus + ",backend=bdd", `unknown key "backend"`},
		{"net=" + campus, "id= and net= are required"},
		{"id=acme,net", "not key=value"},
	} {
		if _, err := parseTenant(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseTenant(%q) = %v, want an error containing %q", c.spec, err, c.want)
		}
	}

	for _, args := range [][]string{{"-shards", "4"}, {"-backend", "atom"}, {"-slow-apply", "300ms"}} {
		err = run(append([]string{"-net", campus}, args...), os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("run() with %s: got %v, want an unknown-flag error", args[0], err)
		}
	}
}

func TestRunRejectsNegativeSegmentBytes(t *testing.T) {
	err := run([]string{"-net", "x", "-journal-segment-bytes", "-5"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-journal-segment-bytes") {
		t.Fatalf("run() with negative segment bytes: got %v, want a -journal-segment-bytes error", err)
	}
}

func TestRunRejectsBadFollowURL(t *testing.T) {
	for _, bad := range []string{"leader:8080", "ftp://leader", "http://leader:8080/v1", "http://"} {
		err := run([]string{"-net", "x", "-follow", bad}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "-follow") {
			t.Fatalf("run() with -follow %q: got %v, want a -follow error", bad, err)
		}
	}
}
