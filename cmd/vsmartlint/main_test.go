package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinaryOverBadModule builds the real vsmartlint binary and runs it
// over a hermetic, deliberately broken module, pinning the exit code
// and the diagnostics a CI user would see.
func TestBinaryOverBadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "vsmartlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-C", filepath.Join("testdata", "badmod"), "./...")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if err == nil || !ok {
		t.Fatalf("want exit status 1, got %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.String(), stderr.String())
	}
	if code := exit.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}

	got := stdout.String()
	for _, want := range []string{
		"framesafety: raw length-prefix write binary.AppendUvarint outside internal/frame",
		"framesafety: checksum construction crc32.Checksum outside internal/frame",
		"framesafety: direct os.Create of snap-* file outside internal/wal",
		"walerr: error from bufio.Writer.Flush discarded by defer",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, got)
		}
	}
	if !strings.HasPrefix(got, "main.go:") {
		t.Errorf("findings should use paths relative to -C dir, got:\n%s", got)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing finding count, got:\n%s", stderr.String())
	}
}

// TestListAnalyzers runs the in-process entry point: -list must name
// every registered analyzer and exit 0.
func TestListAnalyzers(t *testing.T) {
	outf, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer outf.Close()
	if code := run([]string{"-list"}, outf, outf); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	data, err := os.ReadFile(outf.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"framesafety", "hotpathmetrics", "lockscope", "walerr"} {
		if !strings.Contains(string(data), name) {
			t.Errorf("-list output missing %q:\n%s", name, data)
		}
	}
}
