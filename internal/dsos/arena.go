package dsos

import (
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

// RowArena is the ingest-side row builder of the batched wire path. A row
// is typed words, not boxed values: the arena copies each field of a
// decoded message into a darshan-schema sos.RowBuilder, which carves the
// row from a pointer-free chunk and interns its strings in one bounded
// table. A number costs a store, a string one table lookup, and a row
// allocates only its share of a chunk. The rows are the caller's to keep
// until it calls Rewind: the arena keeps no reference to the message.
//
// A RowArena is NOT safe for concurrent use; keep one per ingest shard
// (DSOSStore owns one under its mutex).
type RowArena struct {
	b *sos.RowBuilder
}

// NewRowArena returns an empty arena.
func NewRowArena() *RowArena {
	return &RowArena{b: sos.NewRowBuilder(DarshanSchema())}
}

// AppendObjects appends one store object per seg entry to dst and
// returns it, producing rows value-identical to the package-level
// AppendObjects (same attribute order, same types) but copied into arena
// words.
func (a *RowArena) AppendObjects(dst []sos.Object, m *jsonmsg.Message) []sos.Object {
	for i := range m.Seg {
		dst = a.AppendRow(dst, m, &m.Seg[i], nil, &[7]int32{})
	}
	return dst
}

// AppendRow appends the row of segment s of m to dst. When tab is not nil
// m's strings are strings of that table of the caller's, and ids holds
// the ids of m's Exe, ProducerName, File, Module, Type and Op and of s's
// DataSet (event.RowDecoder.Strings): the arena looks each id up once,
// until Rewind.
func (a *RowArena) AppendRow(dst []sos.Object, m *jsonmsg.Message, s *jsonmsg.Segment, tab []string, ids *[7]int32) []sos.Object {
	b := a.b
	b.Begin()
	b.SetStr(ColModule, m.Module, tab, int(ids[3]))
	b.SetInt(ColUID, m.UID)
	b.SetStr(ColProducerName, m.ProducerName, tab, int(ids[1]))
	b.SetInt(ColSwitches, m.Switches)
	b.SetStr(ColFile, m.File, tab, int(ids[2]))
	b.SetInt(ColRank, int64(m.Rank))
	b.SetInt(ColFlushes, m.Flushes)
	b.SetUint(ColRecordID, m.RecordID)
	b.SetStr(ColExe, m.Exe, tab, int(ids[0]))
	b.SetInt(ColMaxByte, m.MaxByte)
	b.SetStr(ColType, m.Type, tab, int(ids[4]))
	b.SetInt(ColJobID, m.JobID)
	b.SetStr(ColOp, m.Op, tab, int(ids[5]))
	b.SetInt(ColCnt, m.Cnt)
	b.SetInt(ColSegOff, s.Off)
	b.SetInt(ColSegPtSel, s.PtSel)
	b.SetFloat(ColSegDur, s.Dur)
	b.SetInt(ColSegLen, s.Len)
	b.SetInt(ColSegNDims, s.NDims)
	b.SetInt(ColSegIrregHSlab, s.IrregHSlab)
	b.SetInt(ColSegRegHSlab, s.RegHSlab)
	b.SetStr(ColSegDataSet, s.DataSet, tab, int(ids[6]))
	b.SetInt(ColSegNPoints, s.NPoints)
	b.SetFloat(ColSegTimestamp, s.Timestamp)
	return append(dst, b.Row())
}

// Rewind hands the memory of every row built so far back to the arena,
// and forgets the table AppendRow's ids index (sos.RowBuilder.Rewind):
// the caller has copied the rows out, as an insert does.
func (a *RowArena) Rewind() { a.b.Rewind() }
