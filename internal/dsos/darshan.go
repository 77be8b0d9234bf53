package dsos

import (
	"fmt"
	"strconv"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

// DarshanSchemaName is the schema the connector's stream messages are
// stored under (one row per seg entry, the CSV layout of Fig 3).
const DarshanSchemaName = "darshanConnector"

// Attribute positions in the darshan schema, for typed access without
// string lookups on hot paths.
const (
	ColModule = iota
	ColUID
	ColProducerName
	ColSwitches
	ColFile
	ColRank
	ColFlushes
	ColRecordID
	ColExe
	ColMaxByte
	ColType
	ColJobID
	ColOp
	ColCnt
	ColSegOff
	ColSegPtSel
	ColSegDur
	ColSegLen
	ColSegNDims
	ColSegIrregHSlab
	ColSegRegHSlab
	ColSegDataSet
	ColSegNPoints
	ColSegTimestamp
)

// DarshanSchema builds the schema for connector messages.
func DarshanSchema() *sos.Schema {
	s, err := sos.NewSchema(DarshanSchemaName, []sos.AttrSpec{
		{Name: "module", Type: sos.TypeString},
		{Name: "uid", Type: sos.TypeInt64},
		{Name: "ProducerName", Type: sos.TypeString},
		{Name: "switches", Type: sos.TypeInt64},
		{Name: "file", Type: sos.TypeString},
		{Name: "rank", Type: sos.TypeInt64},
		{Name: "flushes", Type: sos.TypeInt64},
		{Name: "record_id", Type: sos.TypeUint64},
		{Name: "exe", Type: sos.TypeString},
		{Name: "max_byte", Type: sos.TypeInt64},
		{Name: "type", Type: sos.TypeString},
		{Name: "job_id", Type: sos.TypeInt64},
		{Name: "op", Type: sos.TypeString},
		{Name: "cnt", Type: sos.TypeInt64},
		{Name: "seg_off", Type: sos.TypeInt64},
		{Name: "seg_pt_sel", Type: sos.TypeInt64},
		{Name: "seg_dur", Type: sos.TypeFloat64},
		{Name: "seg_len", Type: sos.TypeInt64},
		{Name: "seg_ndims", Type: sos.TypeInt64},
		{Name: "seg_irreg_hslab", Type: sos.TypeInt64},
		{Name: "seg_reg_hslab", Type: sos.TypeInt64},
		{Name: "seg_data_set", Type: sos.TypeString},
		{Name: "seg_npoints", Type: sos.TypeInt64},
		{Name: "seg_timestamp", Type: sos.TypeFloat64},
	})
	if err != nil {
		panic(err) // static schema; cannot fail
	}
	return s
}

// DarshanIndices are the joint indices the paper describes: combinations of
// job id, rank and timestamp, each giving a different query performance.
func DarshanIndices() []sos.IndexSpec {
	return []sos.IndexSpec{
		{Name: "job_rank_time", Schema: DarshanSchemaName, Attrs: []string{"job_id", "rank", "seg_timestamp"}},
		{Name: "job_time_rank", Schema: DarshanSchemaName, Attrs: []string{"job_id", "seg_timestamp", "rank"}},
		{Name: "time_job_rank", Schema: DarshanSchemaName, Attrs: []string{"seg_timestamp", "job_id", "rank"}},
	}
}

// SetupDarshan installs the darshan schema and indices on the cluster.
func SetupDarshan(c *Cluster) error {
	if err := c.AddSchema(DarshanSchema()); err != nil {
		return err
	}
	for _, spec := range DarshanIndices() {
		if err := c.AddIndex(spec); err != nil {
			return err
		}
	}
	return nil
}

// DarshanBounds turns the paper's job and rank filters (nil = not given)
// into [from, to) bounds on a darshan index. A job filter applies to an
// index whose first attribute is job_id and is an error on any other; a
// rank filter narrows a job filter on job_rank_time and is ignored
// elsewhere. An index outside DarshanIndices takes the job filter as is,
// and the store checks its types.
//
//lint:allow hotalloc two keys per query, not per event
func DarshanBounds(index string, job, rank *int64) (from, to sos.Key, err error) {
	if job == nil {
		return nil, nil, nil
	}
	for _, spec := range DarshanIndices() {
		if spec.Name == index && spec.Attrs[0] != "job_id" {
			return nil, nil, fmt.Errorf("index %q is ordered by %s first; a job filter needs an index that starts with job_id", index, spec.Attrs[0])
		}
	}
	if rank != nil && index == "job_rank_time" {
		return sos.Key{*job, *rank}, sos.Key{*job, *rank + 1}, nil
	}
	return sos.Key{*job}, sos.Key{*job + 1}, nil
}

// AppendCSVRow appends o as one CSV row in the Fig 3 column order, without
// the newline: floats fixed-point with six decimals (timestamps must not
// degrade to scientific notation), integers in decimal, strings raw. It
// renders straight from the row's typed attributes.
func AppendCSVRow(dst []byte, o sos.Object) []byte {
	for i := 0; i < o.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch o.Type(i) {
		case sos.TypeFloat64:
			dst = strconv.AppendFloat(dst, o.Float(i), 'f', 6, 64)
		case sos.TypeInt64:
			dst = strconv.AppendInt(dst, o.Int(i), 10)
		case sos.TypeUint64:
			dst = strconv.AppendUint(dst, o.Uint(i), 10)
		case sos.TypeString:
			dst = append(dst, o.Str(i)...)
		}
	}
	return dst
}

// ObjectsFromMessage converts a connector message into store objects, one
// per seg entry.
func ObjectsFromMessage(m *jsonmsg.Message) []sos.Object {
	return AppendObjects(make([]sos.Object, 0, len(m.Seg)), m)
}

// AppendObjects appends one store object per seg entry to dst and returns
// it. Ingest consumes the typed record directly — the message arrives
// here as the struct the connector built, not as JSON bytes to re-parse —
// and the outer slice can be reused across messages (the objects
// themselves are fresh).
//
// This is the legacy builder, one sos.NewObject per row, kept as the
// baseline the pipeline benchmark compares against; the batched wire path
// builds rows through RowArena.AppendObjects instead.
func AppendObjects(dst []sos.Object, m *jsonmsg.Message) []sos.Object {
	for i := range m.Seg {
		s := &m.Seg[i]
		dst = append(dst, sos.NewObject(
			m.Module,
			m.UID,
			m.ProducerName,
			m.Switches,
			m.File,
			int64(m.Rank),
			m.Flushes,
			m.RecordID,
			m.Exe,
			m.MaxByte,
			m.Type,
			m.JobID,
			m.Op,
			m.Cnt,
			s.Off,
			s.PtSel,
			s.Dur,
			s.Len,
			s.NDims,
			s.IrregHSlab,
			s.RegHSlab,
			s.DataSet,
			s.NPoints,
			s.Timestamp,
		))
	}
	return dst
}
