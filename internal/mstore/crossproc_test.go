package mstore_test

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSpecDigestChild is the re-exec target of the cross-process
// determinism test below, not a test in its own right: it loads the
// shipped example spec plus a built-in catalog and prints their mstore
// content hashes. It must print nothing else on stdout.
func TestSpecDigestChild(t *testing.T) {
	if os.Getenv("MSTORE_SPEC_CHILD") != "1" {
		t.Skip("re-exec target; run via TestSpecCrossProcessDeterminism")
	}
	reg := workload.NewRegistry()
	def, err := reg.RegisterSpecFile("../../examples/spec2017mem.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Instructions: 5000}
	ind, _ := workload.Builtin().Lookup("dotnet-individual")
	for _, ps := range [][]workload.Profile{def.Profiles(), ind.Profiles()} {
		key, err := mstore.Key(ps, machine.CoreI9(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("digest: %s\n", key)
	}
}

// TestSpecCrossProcessDeterminism is the determinism contract of the
// suite-spec engine, proven across real process boundaries: two fresh
// processes loading the same spec file must generate bit-identical
// profiles — and therefore identical mstore content hashes, so a
// measurement store warmed by one process serves the other. The child
// digests cover the spec-loaded suite and an embedded built-in catalog.
func TestSpecCrossProcessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	runChild := func() []string {
		cmd := exec.Command(exe, "-test.run=TestSpecDigestChild$", "-test.v")
		cmd.Env = append(os.Environ(), "MSTORE_SPEC_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process failed: %v\n%s", err, out)
		}
		var digests []string
		for _, line := range strings.Split(string(out), "\n") {
			if d, ok := strings.CutPrefix(line, "digest: "); ok {
				digests = append(digests, d)
			}
		}
		if len(digests) != 2 {
			t.Fatalf("child printed %d digests, want 2:\n%s", len(digests), out)
		}
		return digests
	}
	a, b := runChild(), runChild()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("digest %d differs across processes:\n  first:  %s\n  second: %s", i, a[i], b[i])
		}
	}
}
