package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFiguresSelectNamesSkipsBlanksAndValidatesUpFront(t *testing.T) {
	// A trailing comma (or doubled commas) must not select anything.
	names, err := selectNames("fig2,")
	if err != nil {
		t.Fatalf("trailing comma: %v", err)
	}
	if len(names) != 1 || names[0] != "fig2" {
		t.Errorf("names = %v, want [fig2]", names)
	}
	names, err = selectNames(" fig4 ,, fig5 ")
	if err != nil {
		t.Fatalf("blanks: %v", err)
	}
	if len(names) != 2 || names[0] != "fig4" || names[1] != "fig5" {
		t.Errorf("names = %v, want [fig4 fig5]", names)
	}

	// Every name is validated before anything runs, and the error names
	// the valid set.
	if _, err = selectNames("fig2,bogus"); err == nil {
		t.Fatal("unknown name must fail")
	} else if !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "fig2") ||
		!strings.Contains(err.Error(), "table1") {
		t.Errorf("error %q should name the bad entry and the valid set", err)
	}

	// All-blank selections are an error, not a silent full run.
	if _, err = selectNames(","); err == nil {
		t.Error("all-blank -only must fail")
	}

	// Empty -only means everything, sorted.
	names, err = selectNames("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(registry) {
		t.Errorf("default selection has %d names, want %d", len(names), len(registry))
	}
}

func TestFiguresRejectUnknownExperimentBeforeRunningAny(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var out, errb strings.Builder
	if code := run([]string{"figures", "-out", dir, "-only", "fig2,nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr: %s", errb.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("output directory created despite invalid -only")
	}
}

func TestFiguresRejectResumeWithoutStateDir(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"figures", "-out", t.TempDir(), "-resume"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-state-dir") {
		t.Errorf("stderr %q should name -state-dir", errb.String())
	}
}

func TestFiguresExecuteGeneratorsInParallel(t *testing.T) {
	// Stub generators keep this fast while exercising the full pipeline:
	// flag parsing, fan-out, file writing, progress output.
	registry["stub-a"] = func(*generator) (string, error) { return "alpha\n", nil }
	registry["stub-b"] = func(*generator) (string, error) { return "beta\n", nil }
	defer delete(registry, "stub-a")
	defer delete(registry, "stub-b")

	dir := t.TempDir()
	var out, errb strings.Builder
	if code := run([]string{"figures", "-out", dir, "-only", "stub-a,stub-b,", "-parallel", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for name, want := range map[string]string{"stub-a": "alpha\n", "stub-b": "beta\n"} {
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s.txt = %q, want %q", name, got, want)
		}
		if !strings.Contains(out.String(), "== "+name+": wrote") {
			t.Errorf("stdout missing progress for %s: %s", name, out.String())
		}
	}
}

func TestFiguresRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "figures", []flagCase{
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-only", "fig2,nope"}, `"nope"`},
	})
}
