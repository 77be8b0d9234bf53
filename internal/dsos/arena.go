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
	var ids [jsonmsg.NumCols]int32
	for i := range m.Seg {
		dst = a.AppendRow(dst, m, &m.Seg[i], nil, &ids)
	}
	return dst
}

// AppendRow appends the row of segment s of m to dst. When tab is not nil
// m's and s's strings are strings of that table of the caller's, and ids
// holds each one's id at its column (event.RowDecoder.Strings): the arena
// looks each id up once, until Rewind. It sets one column per statement;
// TestTableHotSites pins it to jsonmsg.Table.
func (a *RowArena) AppendRow(dst []sos.Object, m *jsonmsg.Message, s *jsonmsg.Segment, tab []string, ids *[jsonmsg.NumCols]int32) []sos.Object {
	b := a.b
	b.Begin()
	b.SetStr(jsonmsg.ColModule, m.Module, tab, int(ids[jsonmsg.ColModule]))
	b.SetInt(jsonmsg.ColUID, m.UID)
	b.SetStr(jsonmsg.ColProducerName, m.ProducerName, tab, int(ids[jsonmsg.ColProducerName]))
	b.SetInt(jsonmsg.ColSwitches, m.Switches)
	b.SetStr(jsonmsg.ColFile, m.File, tab, int(ids[jsonmsg.ColFile]))
	b.SetInt(jsonmsg.ColRank, int64(m.Rank))
	b.SetInt(jsonmsg.ColFlushes, m.Flushes)
	b.SetUint(jsonmsg.ColRecordID, m.RecordID)
	b.SetStr(jsonmsg.ColExe, m.Exe, tab, int(ids[jsonmsg.ColExe]))
	b.SetInt(jsonmsg.ColMaxByte, m.MaxByte)
	b.SetStr(jsonmsg.ColType, m.Type, tab, int(ids[jsonmsg.ColType]))
	b.SetInt(jsonmsg.ColJobID, m.JobID)
	b.SetStr(jsonmsg.ColOp, m.Op, tab, int(ids[jsonmsg.ColOp]))
	b.SetInt(jsonmsg.ColCnt, m.Cnt)
	b.SetInt(jsonmsg.ColSegOff, s.Off)
	b.SetInt(jsonmsg.ColSegPtSel, s.PtSel)
	b.SetFloat(jsonmsg.ColSegDur, s.Dur)
	b.SetInt(jsonmsg.ColSegLen, s.Len)
	b.SetInt(jsonmsg.ColSegNDims, s.NDims)
	b.SetInt(jsonmsg.ColSegIrregHSlab, s.IrregHSlab)
	b.SetInt(jsonmsg.ColSegRegHSlab, s.RegHSlab)
	b.SetStr(jsonmsg.ColSegDataSet, s.DataSet, tab, int(ids[jsonmsg.ColSegDataSet]))
	b.SetInt(jsonmsg.ColSegNPoints, s.NPoints)
	b.SetFloat(jsonmsg.ColSegTimestamp, s.Timestamp)
	return append(dst, b.Row())
}

// Rewind hands the memory of every row built so far back to the arena,
// and forgets the table AppendRow's ids index (sos.RowBuilder.Rewind):
// the caller has copied the rows out, as an insert does.
func (a *RowArena) Rewind() { a.b.Rewind() }
