package replay

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// formatDXT renders a trace back to the line format: the writer the
// round-trip test holds ParseDXT to (parse∘format is the identity on
// normalized traces).
func formatDXT(t *Trace) []byte {
	var b strings.Builder
	b.WriteString("# module rank op offset length start_s end_s file\n")
	for _, op := range t.Ops {
		fmt.Fprintf(&b, "%s %d %s %d %d %.6f %.6f %s\n",
			op.Module, op.Rank, op.Op, op.Offset, op.Length, op.Start, op.End, op.File)
	}
	return []byte(b.String())
}

func TestLoadBuiltinSample(t *testing.T) {
	tr, err := LoadTrace("builtin:sample")
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if got := tr.Ranks(); got != 4 {
		t.Fatalf("sample trace ranks = %d, want 4", got)
	}
	if len(tr.Ops) != 72 {
		t.Fatalf("sample trace ops = %d, want 72", len(tr.Ops))
	}
	// Rank 3 is the straggler: its span must clearly exceed rank 0's.
	span := func(rank int) float64 {
		ops := tr.RankOps(rank)
		return ops[len(ops)-1].End
	}
	if span(3) < 2*span(0) {
		t.Fatalf("straggler missing: rank 3 span %.3f, rank 0 span %.3f", span(3), span(0))
	}
}

func TestDXTRoundTrip(t *testing.T) {
	tr, err := LoadTrace("builtin:sample")
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	out := formatDXT(tr)
	tr2, err := ParseDXT(out)
	if err != nil {
		t.Fatalf("re-parse formatted trace: %v", err)
	}
	if !bytes.Equal(out, formatDXT(tr2)) {
		t.Fatal("formatDXT is not a fixed point over ParseDXT")
	}
}

func TestParseDXTErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"field count", "POSIX 0 write 0 64", "want 8 fields"},
		{"unknown module", "NVMEOF 0 write 0 64 0.1 0.2 f.dat", "unknown module"},
		{"unknown op", "POSIX 0 mmap 0 64 0.1 0.2 f.dat", "unknown op"},
		{"bad rank", "POSIX -1 write 0 64 0.1 0.2 f.dat", "bad rank"},
		{"bad offset", "POSIX 0 write -5 64 0.1 0.2 f.dat", "bad offset"},
		{"end before start", "POSIX 0 write 0 64 0.2 0.1 f.dat", "bad end"},
		{"empty trace", "# nothing here\n", "no ops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDXT([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestLoadTraceUnknownBuiltin(t *testing.T) {
	if _, err := LoadTrace("builtin:nope"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}
