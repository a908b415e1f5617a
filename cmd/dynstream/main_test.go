package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynstream"
	"dynstream/internal/stream"
)

const testStream = `n 6
+ 0 1
+ 1 2
+ 2 3
+ 3 4
+ 4 5
+ 0 5
+ 0 3
- 0 3
`

func runCLI(t *testing.T, args []string, in string) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(context.Background(), args, strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

func TestCLISpanner(t *testing.T) {
	out, errOut := runCLI(t, []string{"spanner", "-k", "2", "-seed", "3"}, testStream)
	if !strings.Contains(errOut, "spanner") {
		t.Errorf("stderr missing summary: %q", errOut)
	}
	if strings.Contains(out, "0 3") {
		t.Error("deleted edge appeared in output")
	}
	if len(strings.Fields(out)) == 0 {
		t.Error("no edges emitted")
	}
}

func TestCLIForest(t *testing.T) {
	out, _ := runCLI(t, []string{"forest", "-seed", "4"}, testStream)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 6-cycle: spanning tree has 5 edges
		t.Errorf("forest has %d edges, want 5:\n%s", len(lines), out)
	}
}

func TestCLIAdditive(t *testing.T) {
	out, errOut := runCLI(t, []string{"additive", "-d", "2", "-seed", "5"}, testStream)
	if len(strings.TrimSpace(out)) == 0 {
		t.Error("no output")
	}
	if !strings.Contains(errOut, " centers, ") {
		t.Errorf("stderr missing center count: %q", errOut)
	}
}

func TestCLIBipartite(t *testing.T) {
	out, _ := runCLI(t, []string{"bipartite", "-seed", "6"}, testStream)
	if !strings.Contains(out, "bipartite: true") { // 6-cycle is bipartite
		t.Errorf("output %q", out)
	}
	odd := "n 3\n+ 0 1\n+ 1 2\n+ 0 2\n"
	out, _ = runCLI(t, []string{"bipartite", "-seed", "7"}, odd)
	if !strings.Contains(out, "bipartite: false") {
		t.Errorf("triangle output %q", out)
	}
}

func TestCLIKCert(t *testing.T) {
	out, _ := runCLI(t, []string{"kcert", "-k", "2", "-seed", "8"}, testStream)
	if len(strings.TrimSpace(out)) == 0 {
		t.Error("no output")
	}
}

func TestCLIErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run(context.Background(), []string{"bogus"}, strings.NewReader(testStream), &out, &errOut); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run(context.Background(), []string{"spanner"}, strings.NewReader("garbage"), &out, &errOut); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestCLIFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"spanner", "-workers", "0"},
		{"spanner", "-workers", "-3"},
		{"forest", "-workers", "0"},
		{"spanner", "-k", "0"},
		{"additive", "-d", "0"},
		{"sparsify", "-z", "0"},
		{"spanner", "-badflag"},
		{"spanner", "-k", "2", "stray-positional"},
	} {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), args, strings.NewReader(testStream), &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

func TestCLIWorkersMatchesSerial(t *testing.T) {
	for _, sub := range [][]string{
		{"spanner", "-k", "2", "-seed", "3"},
		{"additive", "-d", "2", "-seed", "5"},
		{"sparsify", "-k", "1", "-z", "4", "-seed", "6"},
		{"forest", "-seed", "4"},
		{"kcert", "-k", "2", "-seed", "8"},
		{"msf", "-seed", "9"},
		{"bipartite", "-seed", "7"},
	} {
		serialOut, _ := runCLI(t, sub, testStream)
		parOut, errOut := runCLI(t, append(append([]string{}, sub...), "-workers", "3"), testStream)
		if parOut != serialOut {
			t.Errorf("%v -workers 3 output differs:\nserial: %q\nparallel: %q", sub, serialOut, parOut)
		}
		if !strings.Contains(errOut, "3 workers") {
			t.Errorf("%v: stderr missing worker count: %q", sub, errOut)
		}
	}
}

func TestCLIMSF(t *testing.T) {
	weighted := "n 5\n+ 0 1 1\n+ 1 2 1\n+ 2 3 1\n+ 3 4 1\n+ 0 4 50\n"
	out, errOut := runCLI(t, []string{"msf", "-seed", "9"}, weighted)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("MSF has %d edges, want 4:\n%s", len(lines), out)
	}
	if strings.Contains(out, "0 4 ") {
		t.Error("MSF used the heavy edge")
	}
	if !strings.Contains(errOut, "approximate MSF: 4 edges, class-weight total 6, ") {
		t.Errorf("stderr: %q", errOut)
	}
}

// pipeReader hides the Seeker of the underlying string reader, so the
// CLI sees a true pipe (as it would on stdin).
type pipeReader struct{ r io.Reader }

func (p pipeReader) Read(b []byte) (int, error) { return p.r.Read(b) }

func TestCLIStreamsFromPipe(t *testing.T) {
	// Single-pass subcommands must work on a non-seekable stdin without
	// materializing; output must equal the seekable-input run.
	for _, sub := range [][]string{
		{"forest", "-seed", "4"},
		{"additive", "-d", "2", "-seed", "5"},
		{"kcert", "-k", "2", "-seed", "8"},
		{"bipartite", "-seed", "6"},
		{"msf", "-seed", "9", "-wmax", "1"},
	} {
		wantOut, _ := runCLI(t, sub, testStream)
		var out, errOut bytes.Buffer
		if err := run(context.Background(), sub, pipeReader{strings.NewReader(testStream)}, &out, &errOut); err != nil {
			t.Fatalf("%v over pipe: %v\nstderr: %s", sub, err, errOut.String())
		}
		if out.String() != wantOut {
			t.Errorf("%v: pipe output differs from seekable output", sub)
		}
		if strings.Contains(errOut.String(), "materializing") {
			t.Errorf("%v: single-pass subcommand materialized the stream", sub)
		}
	}
}

func TestCLIPipeMaterializeFallback(t *testing.T) {
	// A multi-pass subcommand over a true pipe falls back (with a note)
	// and still produces the standard output.
	want, _ := runCLI(t, []string{"spanner", "-k", "2", "-seed", "3"}, testStream)
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"spanner", "-k", "2", "-seed", "3"},
		pipeReader{strings.NewReader(testStream)}, &out, &errOut)
	if err != nil {
		t.Fatalf("spanner over pipe: %v", err)
	}
	if out.String() != want {
		t.Error("pipe spanner output differs from seekable run")
	}
	if !strings.Contains(errOut.String(), "materializing") {
		t.Errorf("expected materialize note on stderr, got %q", errOut.String())
	}
}

func TestCLIBinaryInput(t *testing.T) {
	// The binary wire format is auto-detected and yields the same output
	// as the text encoding of the same stream.
	ms, err := stream.ReadText(strings.NewReader(testStream))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := stream.WriteBinary(&bin, ms); err != nil {
		t.Fatal(err)
	}
	want, _ := runCLI(t, []string{"forest", "-seed", "4"}, testStream)
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"forest", "-seed", "4"}, bytes.NewReader(bin.Bytes()), &out, &errOut); err != nil {
		t.Fatalf("forest over binary: %v", err)
	}
	if out.String() != want {
		t.Error("binary-format output differs from text-format output")
	}
}

func TestCLITypedErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"spanner", "-workers", "0"}, strings.NewReader(testStream), &out, &errOut)
	if !errors.Is(err, dynstream.ErrBadWorkers) {
		t.Errorf("-workers 0: err = %v, want ErrBadWorkers", err)
	}
	err = run(context.Background(), []string{"spanner", "-k", "0"}, strings.NewReader(testStream), &out, &errOut)
	if !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("-k 0: err = %v, want ErrBadConfig", err)
	}
	err = run(context.Background(), []string{"msf", "-wmax", "-1"}, strings.NewReader(testStream), &out, &errOut)
	if !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("-wmax -1: err = %v, want ErrBadConfig", err)
	}
}

func TestCLIForestTraceCoversDecode(t *testing.T) {
	// -trace must cover the post-build extraction too: the decode runs
	// outside Build, on its own policy, and a regression there silently
	// drops every agm/round row from the timeline.
	out, errOut := runCLI(t, []string{"forest", "-seed", "4", "-trace"}, testStream)
	for _, phase := range []string{"== trace:", "ingest", "agm/round00", "ingested updates:"} {
		if !strings.Contains(errOut, phase) {
			t.Errorf("timeline missing %q:\n%s", phase, errOut)
		}
	}
	base, _ := runCLI(t, []string{"forest", "-seed", "4"}, testStream)
	if out != base {
		t.Error("forest output changed under -trace")
	}

	// -trace-out must hold the decode as well: the file is written after
	// the post-build decode, not when Build returns.
	for _, cmd := range []string{"forest", "kcert", "msf", "bipartite"} {
		path := filepath.Join(t.TempDir(), cmd+".json")
		traced, _ := runCLI(t, []string{cmd, "-seed", "4", "-trace-out", path}, testStream)
		if plain, _ := runCLI(t, []string{cmd, "-seed", "4"}, testStream); traced != plain {
			t.Errorf("%s output changed under -trace-out", cmd)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace file is not JSON: %v", cmd, err)
		}
		seen := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			seen[ev.Name] = true
		}
		if !seen["ingest"] || !seen["agm/round00"] {
			t.Errorf("%s -trace-out: want ingest and agm/round00 spans, got %v", cmd, seen)
		}
	}
}
