package realconfig_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModule vets and smoke-tests the benchmark of record.
// benchmark/ is a nested module that `go test ./...` never compiles, so
// without this an API change in routing, dd or core could break the
// benchmark unnoticed.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped under -short")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "."},
		{"test", "-C", "benchmark", "."},
	} {
		out, err := exec.Command(gobin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
