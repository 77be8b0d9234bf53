package dsos

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

// DarshanSchemaName is the schema the connector's stream messages are
// stored under (one row per seg entry, the CSV layout of Fig 3).
const DarshanSchemaName = "darshanConnector"

// ColSegLen and ColSegTimestamp are jsonmsg's row positions of the two
// columns the benchmark harness reads, under the names it reads them by.
const (
	ColSegLen       = jsonmsg.ColSegLen
	ColSegTimestamp = jsonmsg.ColSegTimestamp
)

// sosTypes maps a column kind to its attribute type.
var sosTypes = [...]sos.Type{
	jsonmsg.KindInt:    sos.TypeInt64,
	jsonmsg.KindUint:   sos.TypeUint64,
	jsonmsg.KindFloat:  sos.TypeFloat64,
	jsonmsg.KindString: sos.TypeString,
}

// DarshanSchema builds the schema for connector messages: jsonmsg.Table's
// columns in row order, a seg entry's named "seg_<key>".
func DarshanSchema() *sos.Schema {
	attrs := make([]sos.AttrSpec, jsonmsg.NumCols)
	for i := range jsonmsg.Table {
		c := &jsonmsg.Table[i]
		attrs[c.Row] = sos.AttrSpec{Name: c.Name("_"), Type: sosTypes[c.Kind]}
	}
	s, err := sos.NewSchema(DarshanSchemaName, attrs)
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

// SetupDarshan installs the darshan schema and indices on every daemon of
// the cluster.
func SetupDarshan(c *Cluster) error {
	s := DarshanSchema()
	for _, d := range c.Daemons() {
		if err := d.setupDarshan(s); err != nil {
			return err
		}
	}
	return nil
}

// NewDarshanShard builds an empty shard daemon with the darshan schema and
// indices, logging to wal (nil: no write-ahead log).
func NewDarshanShard(name, container string, wal sos.WALStore) (*Daemon, error) {
	d := NewDaemon(name, container)
	if wal != nil {
		d.EnableWAL(wal)
	}
	if err := d.setupDarshan(DarshanSchema()); err != nil {
		return nil, err
	}
	return d, nil
}

// setupDarshan registers the darshan schema s and its indices on d.
func (d *Daemon) setupDarshan(s *sos.Schema) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont == nil {
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	if err := d.cont.AddSchema(s); err != nil {
		return err
	}
	d.schemas = append(d.schemas, s)
	for _, spec := range DarshanIndices() {
		if _, err := d.cont.AddIndex(spec); err != nil {
			return err
		}
		d.idxSpecs = append(d.idxSpecs, spec)
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
		return sos.Key{*job, *rank}, above(*job, *rank), nil
	}
	return sos.Key{*job}, above(*job), nil
}

// above is the least key past every key that starts with k: k with its
// last value one higher, carried into the value before it when that value
// is math.MaxInt64, or nil (no bound) when every value is.
func above(k ...int64) sos.Key {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] < math.MaxInt64 {
			to := make(sos.Key, i+1)
			for j, v := range k[:i] {
				to[j] = v
			}
			to[i] = k[i] + 1
			return to
		}
	}
	return nil
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
			dst = appendFixed6(dst, o.Float(i))
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

// appendFixed6 appends v as strconv.AppendFloat(dst, v, 'f', 6, 64) does,
// which always takes strconv's slow big-decimal path. The shortest form
// is quicker, and is the same text padded with zeros whenever it has at
// most six decimals and v is finite and below 2^33 in magnitude: v is then
// within half an ulp, under 5e-7, of that six-decimal number, so it is
// also the nearest one.
func appendFixed6(dst []byte, v float64) []byte {
	if math.IsNaN(v) || !(math.Abs(v) < 1<<33) {
		return strconv.AppendFloat(dst, v, 'f', 6, 64)
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, v, 'f', -1, 64)
	dot := bytes.IndexByte(dst[n:], '.')
	if dot < 0 {
		return append(dst, ".000000"...)
	}
	decimals := len(dst) - n - dot - 1
	if decimals > 6 {
		return strconv.AppendFloat(dst[:n], v, 'f', 6, 64)
	}
	return append(dst, "000000"[decimals:]...)
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
	var vals [jsonmsg.NumCols]any
	for i := range m.Seg {
		for j := range jsonmsg.Table {
			c := &jsonmsg.Table[j]
			vals[c.Row] = c.Value(m, &m.Seg[i])
		}
		dst = append(dst, sos.NewObject(vals[:]...))
	}
	return dst
}
