package darshan

import (
	"sort"
	"time"
)

// DXTSegment is one traced I/O segment: Darshan's eXtended Tracing records
// the offset, length and start/end times of every POSIX and MPI-IO access,
// which is the high-fidelity data the connector forwards ("seg" in the
// JSON message).
type DXTSegment struct {
	Op     Op
	Offset int64
	Length int64
	Start  time.Duration
	End    time.Duration
}

type dxtKey struct {
	mod  Module
	rank int
	id   uint64
}

// DXTTracer collects per-(module, rank, record) segment traces. DXT traces
// the POSIX and MPIIO layers only, matching the real module's coverage.
type DXTTracer struct {
	traces map[dxtKey][]DXTSegment
}

// NewDXTTracer returns an empty tracer.
func NewDXTTracer() *DXTTracer {
	return &DXTTracer{traces: map[dxtKey][]DXTSegment{}}
}

// Trace records one segment. Only POSIX and MPIIO are traced.
func (t *DXTTracer) Trace(mod Module, rank int, id uint64, op Op, offset, length int64, start, end time.Duration) {
	if mod != ModPOSIX && mod != ModMPIIO {
		return
	}
	k := dxtKey{mod, rank, id}
	t.traces[k] = append(t.traces[k], DXTSegment{Op: op, Offset: offset, Length: length, Start: start, End: end})
}

// Segments returns the trace for one (module, rank, record).
func (t *DXTTracer) Segments(mod Module, rank int, id uint64) []DXTSegment {
	return t.traces[dxtKey{mod, rank, id}]
}

// DXTTrace is an exported per-record trace for log output.
type DXTTrace struct {
	Module   Module
	Rank     int
	RecordID uint64
	Segments []DXTSegment
}

// Export returns all traces sorted by (module, record, rank).
func (t *DXTTracer) Export() []DXTTrace {
	out := make([]DXTTrace, 0, len(t.traces))
	for k, segs := range t.traces {
		out = append(out, DXTTrace{Module: k.mod, Rank: k.rank, RecordID: k.id, Segments: segs})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.RecordID != b.RecordID {
			return a.RecordID < b.RecordID
		}
		return a.Rank < b.Rank
	})
	return out
}
