package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFailingRunFlushesProfiles checks that a run which exits non-zero
// still writes its CPU and heap profiles: a failing gate is the run one
// most wants profiled.
func TestFailingRunFlushesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hotpotato")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
