package replay

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// DXT-style trace files: the line-oriented form of Darshan's eXtended
// Tracing output (`darshan-dxt-parser`-shaped, simplified to one record
// per line):
//
//	<module> <rank> <op> <offset> <length> <start_s> <end_s> <file>
//
// Blank lines and #-comments are skipped. ParseDXT reads a trace, and
// RunTrace (workload.go) re-executes it as a timed simulated workload —
// Recorder-style trace-driven evaluation (arXiv:2501.04654) through the
// same instrumentation as the generative apps.

// Trace ops.
const (
	TraceOpen  = "open"
	TraceRead  = "read"
	TraceWrite = "write"
	TraceClose = "close"
)

// MaxTraceOps bounds a parsed trace.
const MaxTraceOps = 1 << 20

// MaxTraceRanks bounds the rank space of a parsed trace.
const MaxTraceRanks = 4096

//go:embed testdata/sample.dxt
var sampleDXT []byte

// TraceOp is one traced I/O operation.
type TraceOp struct {
	Module string // "POSIX" or "MPIIO"
	Rank   int
	Op     string // open, read, write, close
	Offset int64
	Length int64
	Start  float64 // seconds from job start
	End    float64
	File   string
}

// Trace is a parsed DXT trace, ops ordered per rank by start time.
type Trace struct {
	Ops []TraceOp
}

// Ranks returns the trace's world size (max rank + 1).
func (t *Trace) Ranks() int {
	max := -1
	for _, op := range t.Ops {
		if op.Rank > max {
			max = op.Rank
		}
	}
	return max + 1
}

// Span returns the trace's duration in seconds (latest op end).
func (t *Trace) Span() float64 {
	var span float64
	for _, op := range t.Ops {
		if op.End > span {
			span = op.End
		}
	}
	return span
}

// RankOps returns rank's ops in start order.
func (t *Trace) RankOps(rank int) []TraceOp {
	var ops []TraceOp
	for _, op := range t.Ops {
		if op.Rank == rank {
			ops = append(ops, op)
		}
	}
	return ops
}

// ParseDXT parses a trace file. Per-rank op order is normalized to start
// time (stable, so simultaneous ops keep file order).
func ParseDXT(data []byte) (*Trace, error) {
	t := &Trace{}
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 8 {
			return nil, fmt.Errorf("replay: dxt line %d: want 8 fields, got %d", lineNo+1, len(fields))
		}
		op := TraceOp{Module: fields[0], Op: fields[2], File: fields[7]}
		if op.Module != "POSIX" && op.Module != "MPIIO" {
			return nil, fmt.Errorf("replay: dxt line %d: unknown module %q", lineNo+1, op.Module)
		}
		switch op.Op {
		case TraceOpen, TraceRead, TraceWrite, TraceClose:
		default:
			return nil, fmt.Errorf("replay: dxt line %d: unknown op %q", lineNo+1, op.Op)
		}
		var err error
		if op.Rank, err = strconv.Atoi(fields[1]); err != nil || op.Rank < 0 || op.Rank >= MaxTraceRanks {
			return nil, fmt.Errorf("replay: dxt line %d: bad rank %q", lineNo+1, fields[1])
		}
		if op.Offset, err = strconv.ParseInt(fields[3], 10, 64); err != nil || op.Offset < 0 {
			return nil, fmt.Errorf("replay: dxt line %d: bad offset %q", lineNo+1, fields[3])
		}
		if op.Length, err = strconv.ParseInt(fields[4], 10, 64); err != nil || op.Length < 0 {
			return nil, fmt.Errorf("replay: dxt line %d: bad length %q", lineNo+1, fields[4])
		}
		if op.Start, err = strconv.ParseFloat(fields[5], 64); err != nil || op.Start < 0 {
			return nil, fmt.Errorf("replay: dxt line %d: bad start %q", lineNo+1, fields[5])
		}
		if op.End, err = strconv.ParseFloat(fields[6], 64); err != nil || op.End < op.Start {
			return nil, fmt.Errorf("replay: dxt line %d: bad end %q", lineNo+1, fields[6])
		}
		if len(t.Ops) >= MaxTraceOps {
			return nil, fmt.Errorf("replay: trace exceeds %d ops", MaxTraceOps)
		}
		t.Ops = append(t.Ops, op)
	}
	if len(t.Ops) == 0 {
		return nil, fmt.Errorf("replay: trace has no ops")
	}
	sort.SliceStable(t.Ops, func(i, j int) bool {
		if t.Ops[i].Rank != t.Ops[j].Rank {
			return t.Ops[i].Rank < t.Ops[j].Rank
		}
		return t.Ops[i].Start < t.Ops[j].Start
	})
	return t, nil
}

// LoadTrace resolves a scenario trace name: "builtin:sample" is the
// checked-in sample trace; anything else is a file path.
func LoadTrace(name string) (*Trace, error) {
	if name == "builtin:sample" {
		return ParseDXT(sampleDXT)
	}
	if strings.HasPrefix(name, "builtin:") {
		return nil, fmt.Errorf("replay: unknown builtin trace %q", name)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("replay: %v", err)
	}
	return ParseDXT(data)
}
