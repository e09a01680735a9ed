package ips

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleCompiles vets the nested benchmark module, which
// `go build ./...` and `go test ./...` at the root never compile: it
// imports this module through a replace directive, so renaming or
// deleting an exported symbol it calls only breaks it. go vet compiles
// the module's packages and tests and writes nothing into the tree.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module; skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
