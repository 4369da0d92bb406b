package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFailingRunFlushesProfiles checks that a run which exits non-zero
// still writes its CPU and heap profiles: a failing gate is the run one
// most wants profiled.
func TestFailingRunFlushesProfiles(t *testing.T) {
	bin := buildCommand(t)
	dir := filepath.Dir(bin)
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	cmd := exec.Command(bin, "-load", filepath.Join(dir, "missing.json"), "-cpuprofile", cpu, "-memprofile", mem)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("run with a missing -load file succeeded:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty: the failing run skipped the profile write", filepath.Base(p))
		}
	}
}

// TestUnknownAlgoError checks that an error from the facade, which
// already names the package, is printed with the prefix once.
func TestUnknownAlgoError(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(buildCommand(t), "-algo", "bogus")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("run with -algo bogus succeeded")
	}
	if got, want := stderr.String(), "hotpotato: unknown baseline \"bogus\"\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
}

// buildCommand builds the command into a temporary directory and
// returns the binary's path.
func buildCommand(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := filepath.Join(t.TempDir(), "hotpotato")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
