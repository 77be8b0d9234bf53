// Package darshan reimplements the darshan-runtime I/O characterization
// layer over the simulated cluster: per-(module, file, rank) counter
// records, instrumented POSIX / STDIO / MPI-IO / HDF5 wrappers, DXT-style
// tracing, shared-record reduction and log output.
//
// The paper's key modification to Darshan is reproduced at the API level:
// every instrumented call captures the *absolute timestamp* of the
// operation (in the real code, a timespec pointer threaded through the
// module functions that call clock_gettime) and exposes it — together with
// the live counter values — to registered event listeners. The
// Darshan-LDMS Connector is exactly such a listener.
package darshan

import (
	"fmt"
	"sort"
	"time"

	"darshanldms/internal/sim"
)

// Module identifies a Darshan instrumentation module.
type Module string

// The modules this runtime implements (the paper lists POSIX, STDIO,
// LUSTRE, MDHIM for non-MPI and MPIIO, HDF5 (H5F/H5D), PnetCDF for MPI).
const (
	ModPOSIX  Module = "POSIX"
	ModMPIIO  Module = "MPIIO"
	ModSTDIO  Module = "STDIO"
	ModH5F    Module = "H5F"
	ModH5D    Module = "H5D"
	ModLUSTRE Module = "LUSTRE" // striping metadata, counters only (no events)
	// ModPNETCDF ("some PnetCDF" in the paper's module list) is enabled
	// by default and named in the connector's module list; no workload
	// here issues PnetCDF calls.
	ModPNETCDF Module = "PNETCDF"
)

// NumSizeBins is the number of access-size histogram bins darshan keeps
// (SIZE_*_0_100 .. SIZE_*_1G_PLUS).
const NumSizeBins = 10

// SizeBin maps a transfer size to its darshan histogram bin.
func SizeBin(n int64) int {
	switch {
	case n <= 100:
		return 0
	case n <= 1<<10:
		return 1
	case n <= 10<<10:
		return 2
	case n <= 100<<10:
		return 3
	case n <= 1<<20:
		return 4
	case n <= 4<<20:
		return 5
	case n <= 10<<20:
		return 6
	case n <= 100<<20:
		return 7
	case n <= 1<<30:
		return 8
	}
	return 9
}

// SizeBinLabel names histogram bin i the way darshan-parser does.
var sizeBinLabels = [NumSizeBins]string{
	"0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M",
	"1M_4M", "4M_10M", "10M_100M", "100M_1G", "1G_PLUS",
}

// SizeBinLabel returns the darshan-parser label of bin i.
func SizeBinLabel(i int) string { return sizeBinLabels[i] }

// Op is the operation type of an I/O event.
type Op string

// Operations reported in events ("op" in the connector's JSON message).
const (
	OpOpen  Op = "open"
	OpClose Op = "close"
	OpRead  Op = "read"
	OpWrite Op = "write"
	OpFlush Op = "flush"
)

// RecordID hashes a file path to Darshan's 64-bit record identifier.
func RecordID(path string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime
	}
	return h
}

// H5Info carries the HDF5-specific metrics of Table I. Nil for non-HDF5
// events; the connector renders missing values as "N/A"/-1.
type H5Info struct {
	DataSet    string
	NDims      int64
	NPoints    int64
	PtSel      int64
	RegHSlab   int64
	IrregHSlab int64
}

// Event is one instrumented I/O operation, delivered to event listeners at
// the moment the operation completes — during the run, not post-run.
type Event struct {
	Module   Module
	Op       Op
	Rank     int
	Producer string // compute-node name
	File     string
	RecordID uint64
	Offset   int64
	Length   int64 // bytes transferred (reads/writes)

	// Live counter values at event time (Table I fields).
	MaxByte  int64
	Switches int64
	Flushes  int64
	Cnt      int64

	// Absolute virtual timestamps — the paper's addition to Darshan.
	Start time.Duration
	End   time.Duration

	H5 *H5Info
}

// Duration returns the elapsed time of the operation ("seg:dur").
func (ev *Event) Duration() time.Duration { return ev.End - ev.Start }

// Listener receives events as they happen. The listener may charge
// per-event overhead to the rank through the Ctx (this is how the
// connector's JSON-formatting cost becomes application runtime).
type Listener func(ctx *Ctx, ev *Event)

// Record accumulates Darshan counters for one (module, file, rank).
type Record struct {
	Module   Module
	RecordID uint64
	Rank     int // -1 in reduced shared records
	File     string

	Opens, Closes, Reads, Writes, Flushes int64
	BytesRead, BytesWritten               int64
	MaxByteRead, MaxByteWritten           int64
	Switches                              int64
	Cnt                                   int64 // ops since last close (Table I "cnt")

	// Access-size histograms (SIZE_READ_0_100 .. SIZE_WRITE_1G_PLUS).
	SizeReadBins  [NumSizeBins]int64
	SizeWriteBins [NumSizeBins]int64
	// Access-pattern counters: sequential (offset >= previous end) and
	// consecutive (offset == previous end) accesses.
	SeqReads, SeqWrites       int64
	ConsecReads, ConsecWrites int64

	// LUSTRE-module striping metadata (zero for other modules).
	StripeSize  int64
	StripeCount int64

	FirstOpen, LastClose time.Duration
	FirstIO, LastIO      time.Duration
	ReadTime, WriteTime  time.Duration
	MetaTime             time.Duration

	lastWasWrite      bool
	sawIO             bool
	nextReadOff       int64
	nextWriteOff      int64
	sawRead, sawWrite bool
}

type recordKey struct {
	mod Module
	id  uint64
	rnk int
}

// Config parameterizes a Runtime.
type Config struct {
	JobID   int64
	UID     int
	Exe     string
	Modules []Module // enabled modules; nil enables all
	DXT     bool     // enable DXT segment tracing (POSIX and MPIIO)
}

// Runtime is the per-job characterization state, shared by all ranks of the
// job (the simulation is single-threaded, so no locking is needed — the
// real Darshan keeps per-process state and reduces at MPI_Finalize).
type Runtime struct {
	cfg       Config
	enabled   map[Module]bool
	records   map[recordKey]*Record
	listeners []Listener
	dxt       *DXTTracer
	start     time.Duration
	events    int64
}

// NewRuntime creates a runtime; start is the job's begin timestamp.
func NewRuntime(cfg Config, start time.Duration) *Runtime {
	rt := &Runtime{
		cfg:     cfg,
		enabled: map[Module]bool{},
		records: map[recordKey]*Record{},
		start:   start,
	}
	mods := cfg.Modules
	if mods == nil {
		mods = []Module{ModPOSIX, ModMPIIO, ModSTDIO, ModH5F, ModH5D, ModLUSTRE, ModPNETCDF}
	}
	for _, m := range mods {
		rt.enabled[m] = true
	}
	if cfg.DXT {
		rt.dxt = NewDXTTracer()
	}
	return rt
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// DXT returns the DXT tracer, or nil when tracing is disabled.
func (rt *Runtime) DXT() *DXTTracer { return rt.dxt }

// Enabled reports whether module m is instrumented.
func (rt *Runtime) Enabled(m Module) bool { return rt.enabled[m] }

// AddListener registers an event listener (e.g. the LDMS connector).
func (rt *Runtime) AddListener(l Listener) { rt.listeners = append(rt.listeners, l) }

// EventCount returns the number of instrumented events so far.
func (rt *Runtime) EventCount() int64 { return rt.events }

// Ctx is the per-rank instrumentation context: it supplies rank identity,
// the producing node name and the clock, and lets listeners charge overhead
// to the rank.
type Ctx struct {
	Rank     int
	Producer string
	proc     *sim.Proc
	vc       *sim.VClock // optional macro-stepping clock
}

// NewCtx builds a context for a rank process. vc may be nil; when present,
// timestamps include its pending time and overhead charges accumulate
// there instead of sleeping immediately.
func NewCtx(rank int, producer string, p *sim.Proc, vc *sim.VClock) *Ctx {
	return &Ctx{Rank: rank, Producer: producer, proc: p, vc: vc}
}

// Now returns the rank's current absolute virtual time.
func (c *Ctx) Now() time.Duration {
	if c.vc != nil {
		return c.vc.Now()
	}
	return c.proc.Now()
}

// Charge adds d of overhead to the rank (the connector's per-message cost).
func (c *Ctx) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.vc != nil {
		c.vc.Advance(d)
		return
	}
	c.proc.Sleep(d)
}

// Proc returns the backing simulation process.
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// VClock returns the macro-stepping clock, or nil.
func (c *Ctx) VClock() *sim.VClock { return c.vc }

func (rt *Runtime) record(mod Module, id uint64, rank int, file string) *Record {
	k := recordKey{mod, id, rank}
	r, ok := rt.records[k]
	if !ok {
		r = &Record{Module: mod, RecordID: id, Rank: rank, File: file}
		rt.records[k] = r
	}
	return r
}

// observe applies one operation to the counters and delivers the event.
// start/end are the absolute timestamps captured by the wrapper.
func (rt *Runtime) observe(ctx *Ctx, mod Module, op Op, file string, offset, length int64, start, end time.Duration, h5 *H5Info) {
	if !rt.enabled[mod] {
		return
	}
	id := RecordID(file)
	r := rt.record(mod, id, ctx.Rank, file)
	switch op {
	case OpOpen:
		r.Opens++
		if r.FirstOpen == 0 || start < r.FirstOpen {
			r.FirstOpen = start
		}
		r.MetaTime += end - start
		r.Cnt++
	case OpClose:
		r.Closes++
		if end > r.LastClose {
			r.LastClose = end
		}
		r.MetaTime += end - start
		r.Cnt = 0 // Table I: cnt resets after each close
	case OpFlush:
		r.Flushes++
		r.MetaTime += end - start
		r.Cnt++
	case OpRead:
		r.Reads++
		r.BytesRead += length
		r.SizeReadBins[SizeBin(length)]++
		if r.sawRead {
			if offset >= r.nextReadOff {
				r.SeqReads++
			}
			if offset == r.nextReadOff {
				r.ConsecReads++
			}
		}
		r.sawRead = true
		r.nextReadOff = offset + length
		if mb := offset + length - 1; mb > r.MaxByteRead {
			r.MaxByteRead = mb
		}
		if r.sawIO && r.lastWasWrite {
			r.Switches++
		}
		r.lastWasWrite = false
		r.sawIO = true
		r.ReadTime += end - start
		r.Cnt++
	case OpWrite:
		r.Writes++
		r.BytesWritten += length
		r.SizeWriteBins[SizeBin(length)]++
		if r.sawWrite {
			if offset >= r.nextWriteOff {
				r.SeqWrites++
			}
			if offset == r.nextWriteOff {
				r.ConsecWrites++
			}
		}
		r.sawWrite = true
		r.nextWriteOff = offset + length
		if mb := offset + length - 1; mb > r.MaxByteWritten {
			r.MaxByteWritten = mb
		}
		if r.sawIO && !r.lastWasWrite {
			r.Switches++
		}
		r.lastWasWrite = true
		r.sawIO = true
		r.WriteTime += end - start
		r.Cnt++
	}
	if op == OpRead || op == OpWrite {
		if r.FirstIO == 0 || start < r.FirstIO {
			r.FirstIO = start
		}
		if end > r.LastIO {
			r.LastIO = end
		}
	}
	rt.events++
	if rt.dxt != nil {
		rt.dxt.Trace(mod, ctx.Rank, id, op, offset, length, start, end)
	}
	if len(rt.listeners) > 0 {
		ev := &Event{
			Module:   mod,
			Op:       op,
			Rank:     ctx.Rank,
			Producer: ctx.Producer,
			File:     file,
			RecordID: id,
			Offset:   offset,
			Length:   length,
			MaxByte:  maxInt64(r.MaxByteRead, r.MaxByteWritten),
			Switches: r.Switches,
			Flushes:  r.Flushes,
			Cnt:      r.Cnt,
			Start:    start,
			End:      end,
			H5:       h5,
		}
		for _, l := range rt.listeners {
			l(ctx, ev)
		}
	}
}

// RecordLustreStripe records the LUSTRE module's striping metadata for a
// file. The LUSTRE module is counters-only: it produces a log record but no
// run-time events (matching the real module, which has no DXT tracing and
// is not forwarded by the connector).
func (rt *Runtime) RecordLustreStripe(ctx *Ctx, file string, stripeSize, stripeCount int64) {
	if !rt.enabled[ModLUSTRE] {
		return
	}
	r := rt.record(ModLUSTRE, RecordID(file), ctx.Rank, file)
	r.StripeSize = stripeSize
	r.StripeCount = stripeCount
}

// Summary is the post-run result (what darshan-runtime writes to the log).
type Summary struct {
	JobID   int64
	UID     int
	Exe     string
	Start   time.Duration
	End     time.Duration
	NProcs  int
	Records []*Record
	Events  int64
}

// Finalize produces the job summary at time end, with records sorted by
// (module, record id, rank) for reproducible output.
func (rt *Runtime) Finalize(end time.Duration, nprocs int) *Summary {
	recs := make([]*Record, 0, len(rt.records))
	for _, r := range rt.records {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.RecordID != b.RecordID {
			return a.RecordID < b.RecordID
		}
		return a.Rank < b.Rank
	})
	return &Summary{
		JobID:   rt.cfg.JobID,
		UID:     rt.cfg.UID,
		Exe:     rt.cfg.Exe,
		Start:   rt.start,
		End:     end,
		NProcs:  nprocs,
		Records: recs,
		Events:  rt.events,
	}
}

// Reduce merges per-rank records of files accessed by every rank into
// shared records with Rank = -1, as darshan's shared-file reduction does at
// MPI_Finalize. Records for files touched by a subset of ranks are kept
// per-rank.
func (s *Summary) Reduce() []*Record {
	type grpKey struct {
		mod Module
		id  uint64
	}
	groups := map[grpKey][]*Record{}
	for _, r := range s.Records {
		k := grpKey{r.Module, r.RecordID}
		groups[k] = append(groups[k], r)
	}
	var out []*Record
	for _, rs := range groups {
		if len(rs) < s.NProcs || s.NProcs <= 1 {
			out = append(out, rs...)
			continue
		}
		agg := &Record{
			Module:   rs[0].Module,
			RecordID: rs[0].RecordID,
			Rank:     -1,
			File:     rs[0].File,
		}
		for _, r := range rs {
			agg.Opens += r.Opens
			agg.Closes += r.Closes
			agg.Reads += r.Reads
			agg.Writes += r.Writes
			agg.Flushes += r.Flushes
			agg.BytesRead += r.BytesRead
			agg.BytesWritten += r.BytesWritten
			agg.Switches += r.Switches
			for i := 0; i < NumSizeBins; i++ {
				agg.SizeReadBins[i] += r.SizeReadBins[i]
				agg.SizeWriteBins[i] += r.SizeWriteBins[i]
			}
			agg.SeqReads += r.SeqReads
			agg.SeqWrites += r.SeqWrites
			agg.ConsecReads += r.ConsecReads
			agg.ConsecWrites += r.ConsecWrites
			agg.StripeSize = maxInt64(agg.StripeSize, r.StripeSize)
			agg.StripeCount = maxInt64(agg.StripeCount, r.StripeCount)
			agg.MaxByteRead = maxInt64(agg.MaxByteRead, r.MaxByteRead)
			agg.MaxByteWritten = maxInt64(agg.MaxByteWritten, r.MaxByteWritten)
			if agg.FirstOpen == 0 || (r.FirstOpen > 0 && r.FirstOpen < agg.FirstOpen) {
				agg.FirstOpen = r.FirstOpen
			}
			if r.LastClose > agg.LastClose {
				agg.LastClose = r.LastClose
			}
			agg.ReadTime += r.ReadTime
			agg.WriteTime += r.WriteTime
			agg.MetaTime += r.MetaTime
		}
		out = append(out, agg)
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

// String renders a record like darshan-parser's text output.
func (r *Record) String() string {
	return fmt.Sprintf("%s\t%d\t%d\t%s\topens=%d closes=%d reads=%d writes=%d bytes_read=%d bytes_written=%d switches=%d",
		r.Module, r.Rank, r.RecordID, r.File, r.Opens, r.Closes, r.Reads, r.Writes, r.BytesRead, r.BytesWritten, r.Switches)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
