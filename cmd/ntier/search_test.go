package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallArgs is a fast end-to-end invocation: tiny workloads, short
// protocol, four candidates, budget 4.
func smallArgs(extra ...string) []string {
	args := []string{
		"search", "-hw", "1/2/1/2", "-soft", "200-20-10",
		"-threads", "2,8", "-conns", "2,8",
		"-wl", "300,900", "-budget", "4",
		"-ramp", "2s", "-measure", "6s", "-seed", "7", "-q",
	}
	return append(args, extra...)
}

func TestSearchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	pareto := filepath.Join(dir, "pareto.csv")
	points := filepath.Join(dir, "points.csv")
	var stdout, stderr strings.Builder
	code := run(smallArgs("-csv", pareto, "-points-csv", points), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "best allocation") {
		t.Errorf("stdout missing best allocation line:\n%s", out)
	}
	if !strings.Contains(out, "Pareto frontier") {
		t.Errorf("stdout missing the Pareto table:\n%s", out)
	}
	for _, path := range []string{pareto, points} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s not written: %v", path, err)
		}
		if !strings.Contains(string(data), ",") {
			t.Errorf("%s does not look like CSV: %q", path, data)
		}
	}
}

// TestSearchResume re-invokes a journaled search with -resume and checks the
// replay is reported and the frontier CSV is byte-identical.
func TestSearchResume(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	pareto1 := filepath.Join(dir, "p1.csv")
	pareto2 := filepath.Join(dir, "p2.csv")

	var out1, err1 strings.Builder
	if code := run(smallArgs("-state-dir", state, "-csv", pareto1), &out1, &err1); code != 0 {
		t.Fatalf("first run = %d, stderr: %s", code, err1.String())
	}
	// Without -resume a populated state dir must be refused.
	var outNo, errNo strings.Builder
	if code := run(smallArgs("-state-dir", state), &outNo, &errNo); code == 0 {
		t.Fatal("re-run without -resume succeeded; want refusal")
	}
	var out2, err2 strings.Builder
	if code := run(smallArgs("-state-dir", state, "-resume", "-csv", pareto2), &out2, &err2); code != 0 {
		t.Fatalf("resumed run = %d, stderr: %s", code, err2.String())
	}
	if !strings.Contains(out2.String(), "restored from journal") ||
		strings.Contains(out2.String(), "(0 restored from journal") {
		t.Errorf("resumed run did not report restored trials:\n%s", out2.String())
	}
	b1, err := os.ReadFile(pareto1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(pareto2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("resumed Pareto CSV differs:\n%s\nvs\n%s", b1, b2)
	}
}

func TestSearchRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "search", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-soft", "400-30"}, "-soft"},
		{[]string{"-wl", "x,y"}, "-wl"},
		{[]string{"-threads", "a,b"}, "-threads"},
		{[]string{"-conns", "z"}, "-conns"},
		{[]string{"-web", "q"}, "-web"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-budget", "1"}, "-budget"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
