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
// allocates only its share of a chunk. The rows are the caller's to keep:
// the store copies them on insert, and the arena never writes one again
// nor keeps a reference to the message.
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
	b := a.b
	for i := range m.Seg {
		s := &m.Seg[i]
		b.Begin()
		b.SetStr(ColModule, m.Module)
		b.SetInt(ColUID, m.UID)
		b.SetStr(ColProducerName, m.ProducerName)
		b.SetInt(ColSwitches, m.Switches)
		b.SetStr(ColFile, m.File)
		b.SetInt(ColRank, int64(m.Rank))
		b.SetInt(ColFlushes, m.Flushes)
		b.SetUint(ColRecordID, m.RecordID)
		b.SetStr(ColExe, m.Exe)
		b.SetInt(ColMaxByte, m.MaxByte)
		b.SetStr(ColType, m.Type)
		b.SetInt(ColJobID, m.JobID)
		b.SetStr(ColOp, m.Op)
		b.SetInt(ColCnt, m.Cnt)
		b.SetInt(ColSegOff, s.Off)
		b.SetInt(ColSegPtSel, s.PtSel)
		b.SetFloat(ColSegDur, s.Dur)
		b.SetInt(ColSegLen, s.Len)
		b.SetInt(ColSegNDims, s.NDims)
		b.SetInt(ColSegIrregHSlab, s.IrregHSlab)
		b.SetInt(ColSegRegHSlab, s.RegHSlab)
		b.SetStr(ColSegDataSet, s.DataSet)
		b.SetInt(ColSegNPoints, s.NPoints)
		b.SetFloat(ColSegTimestamp, s.Timestamp)
		dst = append(dst, b.Row())
	}
	return dst
}
