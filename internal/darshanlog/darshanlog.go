// Package darshanlog implements the binary job-summary log the
// darshan-runtime equivalent writes at the end of each execution, and the
// darshan-util equivalent that parses it back. Like the real format, logs
// are compressed (gzip here, libz there) and carry a job header, the
// per-module counter records, and — when DXT was enabled — the traced
// segments.
package darshanlog

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"darshanldms/internal/darshan"
)

// Magic and version identify the format.
const (
	Magic   = "DARSHAN-GO-LOG"
	Version = 1
)

// Log is the parsed form of a log file.
type Log struct {
	JobID   int64
	UID     int
	Exe     string
	Start   time.Duration
	End     time.Duration
	NProcs  int
	Events  int64
	Records []*darshan.Record
	DXT     []darshan.DXTTrace
}

// Write serializes the summary (and optional DXT traces) to w.
func Write(w io.Writer, sum *darshan.Summary, dxt []darshan.DXTTrace) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(Version)); err != nil {
		return err
	}
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	enc := &encoder{w: bw}
	enc.i64(sum.JobID)
	enc.i64(int64(sum.UID))
	enc.str(sum.Exe)
	enc.i64(int64(sum.Start))
	enc.i64(int64(sum.End))
	enc.i64(int64(sum.NProcs))
	enc.i64(sum.Events)
	enc.i64(int64(len(sum.Records)))
	for _, r := range sum.Records {
		enc.record(r)
	}
	enc.i64(int64(len(dxt)))
	for _, tr := range dxt {
		enc.str(string(tr.Module))
		enc.i64(int64(tr.Rank))
		enc.u64(tr.RecordID)
		enc.i64(int64(len(tr.Segments)))
		for _, s := range tr.Segments {
			enc.str(string(s.Op))
			enc.i64(s.Offset)
			enc.i64(s.Length)
			enc.i64(int64(s.Start))
			enc.i64(int64(s.End))
		}
	}
	if enc.err != nil {
		return enc.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// Read parses a log produced by Write.
func Read(r io.Reader) (*Log, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("darshanlog: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, errors.New("darshanlog: bad magic (not a darshan-go log)")
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("darshanlog: unsupported version %d", version)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	dec := &decoder{r: bufio.NewReader(zr)}
	log := &Log{}
	log.JobID = dec.i64()
	log.UID = int(dec.i64())
	log.Exe = dec.str()
	log.Start = time.Duration(dec.i64())
	log.End = time.Duration(dec.i64())
	log.NProcs = int(dec.i64())
	log.Events = dec.i64()
	nrec := dec.i64()
	if dec.err != nil {
		return nil, dec.err
	}
	if nrec < 0 || nrec > 1<<28 {
		return nil, fmt.Errorf("darshanlog: implausible record count %d", nrec)
	}
	// Cap the preallocation: the count is attacker-controlled header data,
	// and a lying header must not reserve gigabytes before the first
	// record fails to decode. Append grows the honest case just fine.
	log.Records = make([]*darshan.Record, 0, min(nrec, 4096))
	for i := int64(0); i < nrec; i++ {
		log.Records = append(log.Records, dec.record())
		if dec.err != nil {
			return nil, dec.err
		}
	}
	ntr := dec.i64()
	if ntr < 0 || ntr > 1<<28 {
		return nil, fmt.Errorf("darshanlog: implausible trace count %d", ntr)
	}
	for i := int64(0); i < ntr; i++ {
		tr := darshan.DXTTrace{
			Module:   darshan.Module(dec.str()),
			Rank:     int(dec.i64()),
			RecordID: dec.u64(),
		}
		nseg := dec.i64()
		if dec.err != nil {
			return nil, dec.err
		}
		if nseg < 0 || nseg > 1<<30 {
			return nil, fmt.Errorf("darshanlog: implausible segment count %d", nseg)
		}
		tr.Segments = make([]darshan.DXTSegment, 0, min(nseg, 4096))
		for j := int64(0); j < nseg; j++ {
			tr.Segments = append(tr.Segments, darshan.DXTSegment{
				Op:     darshan.Op(dec.str()),
				Offset: dec.i64(),
				Length: dec.i64(),
				Start:  time.Duration(dec.i64()),
				End:    time.Duration(dec.i64()),
			})
			if dec.err != nil {
				return nil, dec.err
			}
		}
		log.DXT = append(log.DXT, tr)
		if dec.err != nil {
			return nil, dec.err
		}
	}
	return log, dec.err
}

type encoder struct {
	w   *bufio.Writer
	err error
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, e.err = e.w.Write(buf[:])
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *encoder) record(r *darshan.Record) {
	e.str(string(r.Module))
	e.u64(r.RecordID)
	e.i64(int64(r.Rank))
	e.str(r.File)
	vals := []int64{
		r.Opens, r.Closes, r.Reads, r.Writes, r.Flushes,
		r.BytesRead, r.BytesWritten, r.MaxByteRead, r.MaxByteWritten,
		r.Switches, r.Cnt,
		int64(r.FirstOpen), int64(r.LastClose), int64(r.FirstIO), int64(r.LastIO),
		int64(r.ReadTime), int64(r.WriteTime), int64(r.MetaTime),
		r.SeqReads, r.SeqWrites, r.ConsecReads, r.ConsecWrites,
		r.StripeSize, r.StripeCount,
	}
	vals = append(vals, r.SizeReadBins[:]...)
	vals = append(vals, r.SizeWriteBins[:]...)
	for _, v := range vals {
		e.i64(v)
	}
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("darshanlog: implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

func (d *decoder) record() *darshan.Record {
	r := &darshan.Record{
		Module:   darshan.Module(d.str()),
		RecordID: d.u64(),
		Rank:     int(d.i64()),
		File:     d.str(),
	}
	vals := make([]int64, 24+2*darshan.NumSizeBins)
	for i := range vals {
		vals[i] = d.i64()
	}
	r.Opens, r.Closes, r.Reads, r.Writes, r.Flushes = vals[0], vals[1], vals[2], vals[3], vals[4]
	r.BytesRead, r.BytesWritten, r.MaxByteRead, r.MaxByteWritten = vals[5], vals[6], vals[7], vals[8]
	r.Switches, r.Cnt = vals[9], vals[10]
	r.FirstOpen, r.LastClose = time.Duration(vals[11]), time.Duration(vals[12])
	r.FirstIO, r.LastIO = time.Duration(vals[13]), time.Duration(vals[14])
	r.ReadTime, r.WriteTime, r.MetaTime = time.Duration(vals[15]), time.Duration(vals[16]), time.Duration(vals[17])
	r.SeqReads, r.SeqWrites, r.ConsecReads, r.ConsecWrites = vals[18], vals[19], vals[20], vals[21]
	r.StripeSize, r.StripeCount = vals[22], vals[23]
	copy(r.SizeReadBins[:], vals[24:24+darshan.NumSizeBins])
	copy(r.SizeWriteBins[:], vals[24+darshan.NumSizeBins:])
	return r
}

// Dump renders the log as darshan-parser-style text.
func Dump(w io.Writer, log *Log) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# darshan log version: go-%d\n", Version)
	fmt.Fprintf(&b, "# exe: %s\n", log.Exe)
	fmt.Fprintf(&b, "# uid: %d\n", log.UID)
	fmt.Fprintf(&b, "# jobid: %d\n", log.JobID)
	fmt.Fprintf(&b, "# start_time: %.6f\n", log.Start.Seconds())
	fmt.Fprintf(&b, "# end_time: %.6f\n", log.End.Seconds())
	fmt.Fprintf(&b, "# nprocs: %d\n", log.NProcs)
	fmt.Fprintf(&b, "# run time: %.6f\n", (log.End - log.Start).Seconds())
	fmt.Fprintf(&b, "# events: %d\n", log.Events)
	b.WriteString("\n#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\n")
	recs := append([]*darshan.Record(nil), log.Records...)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Module != recs[j].Module {
			return recs[i].Module < recs[j].Module
		}
		if recs[i].RecordID != recs[j].RecordID {
			return recs[i].RecordID < recs[j].RecordID
		}
		return recs[i].Rank < recs[j].Rank
	})
	for _, r := range recs {
		pre := string(r.Module)
		emit := func(counter string, v int64) {
			fmt.Fprintf(&b, "%s\t%d\t%d\t%s_%s\t%d\t%s\n", r.Module, r.Rank, r.RecordID, pre, counter, v, r.File)
		}
		emit("OPENS", r.Opens)
		emit("CLOSES", r.Closes)
		emit("READS", r.Reads)
		emit("WRITES", r.Writes)
		emit("FLUSHES", r.Flushes)
		emit("BYTES_READ", r.BytesRead)
		emit("BYTES_WRITTEN", r.BytesWritten)
		emit("MAX_BYTE_READ", r.MaxByteRead)
		emit("MAX_BYTE_WRITTEN", r.MaxByteWritten)
		emit("RW_SWITCHES", r.Switches)
		emit("SEQ_READS", r.SeqReads)
		emit("SEQ_WRITES", r.SeqWrites)
		emit("CONSEC_READS", r.ConsecReads)
		emit("CONSEC_WRITES", r.ConsecWrites)
		for i := 0; i < darshan.NumSizeBins; i++ {
			if r.SizeReadBins[i] > 0 {
				emit("SIZE_READ_"+darshan.SizeBinLabel(i), r.SizeReadBins[i])
			}
			if r.SizeWriteBins[i] > 0 {
				emit("SIZE_WRITE_"+darshan.SizeBinLabel(i), r.SizeWriteBins[i])
			}
		}
		if r.Module == darshan.ModLUSTRE {
			emit("STRIPE_SIZE", r.StripeSize)
			emit("STRIPE_WIDTH", r.StripeCount)
		}
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s_F_READ_TIME\t%.6f\t%s\n", r.Module, r.Rank, r.RecordID, pre, r.ReadTime.Seconds(), r.File)
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s_F_WRITE_TIME\t%.6f\t%s\n", r.Module, r.Rank, r.RecordID, pre, r.WriteTime.Seconds(), r.File)
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s_F_META_TIME\t%.6f\t%s\n", r.Module, r.Rank, r.RecordID, pre, r.MetaTime.Seconds(), r.File)
	}
	if len(log.DXT) > 0 {
		b.WriteString("\n# DXT trace\n")
		for _, tr := range log.DXT {
			fmt.Fprintf(&b, "# DXT, file_id %d, rank %d, module %s, segments %d\n", tr.RecordID, tr.Rank, tr.Module, len(tr.Segments))
			for i, s := range tr.Segments {
				fmt.Fprintf(&b, "X_%s\t%d\t%s\t%d\t%d\t%d\t%.6f\t%.6f\n", tr.Module, tr.Rank, s.Op, i, s.Offset, s.Length, s.Start.Seconds(), s.End.Seconds())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
