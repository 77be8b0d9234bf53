package sos

// The container as it stored rows before typed words: a slab of []any
// per schema, one boxed value per attribute. It is kept verbatim, renamed,
// as the differential reference FuzzObjectsMatchBoxed holds the typed
// container to: the same cursor output, Check verdicts, snapshot bytes
// and WAL record bytes.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// refObject is one stored tuple, values aligned with the schema's attributes.
type refObject []any

// refIndex is a live B+tree over a composite key.
type refIndex struct {
	spec     IndexSpec
	attrIdxs []int
	types    []Type // the type of each key attribute
	tree     *refBTree
	key      []byte // the tree key being inserted
}

// insert adds obj, stored at slab position pos, under its tree key: the
// encoded index attributes, then the position.
func (ix *refIndex) insert(obj refObject, pos int) {
	k := ix.key[:0]
	for _, ai := range ix.attrIdxs {
		k = appendValue(k, obj[ai])
	}
	ix.key = binary.BigEndian.AppendUint32(k, uint32(pos))
	ix.tree.insert(ix.key)
}

// Spec returns the index declaration.
func (ix *refIndex) Spec() IndexSpec { return ix.spec }

// CheckKey reports an error unless k can bound a scan of the index: at
// most one element per key attribute, each of that attribute's type. A
// bound of the wrong type cannot be ordered against the tree's keys.
func (ix *refIndex) CheckKey(k Key) error {
	if len(k) > len(ix.types) {
		return fmt.Errorf("sos: index %q: a bound of %d values, the key has %d attributes", ix.spec.Name, len(k), len(ix.types))
	}
	for i, v := range k {
		if !refTypeMatches(ix.types[i], v) {
			return fmt.Errorf("sos: index %q: bound value %d is %T, attribute %q is %s", ix.spec.Name, i, v, ix.spec.Attrs[i], ix.types[i])
		}
	}
	return nil
}

// Len returns the number of indexed entries.
func (ix *refIndex) Len() int { return ix.tree.size }

// refContainer is one SOS container: schemas, object slabs and indices.
type refContainer struct {
	Name    string
	schemas map[string]*Schema
	slabs   map[string][]refObject
	indices map[string]*refIndex
	// bySchema lists each schema's indices, which every insert updates.
	bySchema map[string][]*refIndex
	nextOID  uint64
	// origins holds the cluster-assigned logical insert id of each slab
	// position (replicated DSOS writes stamp the same origin on every
	// replica so quorum reads can collapse copies). The slice is allocated
	// lazily on the first non-zero origin, so unreplicated containers pay
	// nothing and keep their exact pre-replication memory and snapshot
	// layout.
	origins map[string][]uint64
}

// newRefContainer creates an empty container.
func newRefContainer(name string) *refContainer {
	return &refContainer{
		Name:     name,
		schemas:  map[string]*Schema{},
		slabs:    map[string][]refObject{},
		indices:  map[string]*refIndex{},
		bySchema: map[string][]*refIndex{},
		origins:  map[string][]uint64{},
	}
}

// AddSchema registers a schema.
func (c *refContainer) AddSchema(s *Schema) error {
	if _, dup := c.schemas[s.Name]; dup {
		return fmt.Errorf("sos: schema %q already exists", s.Name)
	}
	c.schemas[s.Name] = s
	return nil
}

// Schema returns the named schema, or nil.
func (c *refContainer) Schema(name string) *Schema { return c.schemas[name] }

// Schemas returns all schema names, sorted.
func (c *refContainer) Schemas() []string {
	out := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddIndex declares an index; existing objects are back-indexed.
func (c *refContainer) AddIndex(spec IndexSpec) (*refIndex, error) {
	if _, dup := c.indices[spec.Name]; dup {
		return nil, fmt.Errorf("sos: index %q already exists", spec.Name)
	}
	sch := c.schemas[spec.Schema]
	if sch == nil {
		return nil, fmt.Errorf("sos: index %q references unknown schema %q", spec.Name, spec.Schema)
	}
	idxs := make([]int, len(spec.Attrs))
	types := make([]Type, len(spec.Attrs))
	for i, a := range spec.Attrs {
		pos := sch.AttrIndex(a)
		if pos < 0 {
			return nil, fmt.Errorf("sos: index %q references unknown attribute %q", spec.Name, a)
		}
		idxs[i], types[i] = pos, sch.Attrs[pos].Type
	}
	ix := &refIndex{spec: spec, attrIdxs: idxs, types: types, tree: newRefBTree(8*len(idxs) + KeySuffixLen)}
	c.indices[spec.Name] = ix
	c.bySchema[spec.Schema] = append(c.bySchema[spec.Schema], ix)
	for pos, obj := range c.slabs[spec.Schema] {
		ix.insert(obj, pos)
	}
	return ix, nil
}

// Index returns the named index, or nil.
func (c *refContainer) Index(name string) *refIndex { return c.indices[name] }

// Indices returns all index names, sorted.
func (c *refContainer) Indices() []string {
	out := make([]string, 0, len(c.indices))
	for n := range c.indices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends an object to the schema's slab and updates every index on
// that schema. The object's values must match the schema's types.
func (c *refContainer) Insert(schemaName string, obj refObject) error {
	return c.InsertOrigin(schemaName, obj, 0)
}

// InsertOrigin inserts like Insert and records origin, a cluster-assigned
// logical insert id. Replicated DSOS writes stamp the same non-zero origin
// on every replica so a quorum read can recognise copies of one logical
// object; origin 0 means "unreplicated" and costs nothing.
func (c *refContainer) InsertOrigin(schemaName string, obj refObject, origin uint64) error {
	if err := c.Check(schemaName, obj); err != nil {
		return err
	}
	c.InsertChecked(schemaName, obj, origin)
	return nil
}

// Check reports whether obj can be inserted under schemaName: the schema
// exists and every value has its attribute's type.
func (c *refContainer) Check(schemaName string, obj refObject) error {
	sch := c.schemas[schemaName]
	if sch == nil {
		return fmt.Errorf("sos: unknown schema %q", schemaName)
	}
	if len(obj) != len(sch.Attrs) {
		return fmt.Errorf("sos: object has %d values, schema %q has %d attrs", len(obj), schemaName, len(sch.Attrs))
	}
	for i, v := range obj {
		if !refTypeMatches(sch.Attrs[i].Type, v) {
			return fmt.Errorf("sos: attribute %q: value %T does not match %s", sch.Attrs[i].Name, v, sch.Attrs[i].Type)
		}
	}
	return nil
}

// InsertChecked inserts like InsertOrigin an object that Check accepted,
// without checking it again: it serves a caller that logs the rows it
// checked before storing them. An unchecked object can panic in an index's
// key encoder.
func (c *refContainer) InsertChecked(schemaName string, obj refObject, origin uint64) {
	pos := len(c.slabs[schemaName])
	c.slabs[schemaName] = append(c.slabs[schemaName], obj)
	if origin != 0 && c.origins[schemaName] == nil {
		// First stamped insert: backfill zeros for earlier objects.
		c.origins[schemaName] = make([]uint64, pos)
	}
	if c.origins[schemaName] != nil {
		c.origins[schemaName] = append(c.origins[schemaName], origin)
	}
	c.nextOID++
	for _, ix := range c.bySchema[schemaName] {
		ix.insert(obj, pos)
	}
}

func refTypeMatches(t Type, v any) bool {
	switch t {
	case TypeInt64:
		_, ok := v.(int64)
		return ok
	case TypeUint64:
		_, ok := v.(uint64)
		return ok
	case TypeFloat64:
		_, ok := v.(float64)
		return ok
	case TypeString:
		_, ok := v.(string)
		return ok
	}
	return false
}

// Count returns the number of objects stored under schema.
func (c *refContainer) Count(schema string) int {
	return len(c.slabs[schema])
}

// refCursor walks one index in key order over an attribute-prefix range
// [from, to). It copies nothing and holds no lock: Key and Object return
// the container's own memory, which the caller must not modify. A cursor
// is valid until the container is next modified; a scan that spans
// modifications reopens with CursorAfter the last Key it saw.
type refCursor struct {
	slab    []refObject
	origins []uint64
	it, end refIterator // end is the first entry past the range
	started bool
}

// Cursor opens a cursor on the named index at the first key >= from (nil
// = the minimum) that stops before to (nil = open). Both bounds are
// prefixes of the index's attributes and must have their types
// (refIndex.CheckKey).
func (c *refContainer) Cursor(indexName string, from, to Key) (refCursor, error) {
	return c.open(indexName, from, nil, to)
}

// CursorAfter opens a cursor just past after, a tree key (refCursor.Key)
// that a cursor on the same index returned, that stops before to. Tree keys
// end in the row's unique slab position, so the scan resumes exactly behind
// the last entry it saw.
func (c *refContainer) CursorAfter(indexName string, after []byte, to Key) (refCursor, error) {
	return c.open(indexName, nil, after, to)
}

// open encodes the bounds once and seeks both ends of the range, so
// stepping the cursor compares positions, not keys.
func (c *refContainer) open(indexName string, from Key, after []byte, to Key) (refCursor, error) {
	ix := c.indices[indexName]
	if ix == nil {
		return refCursor{}, fmt.Errorf("sos: unknown index %q", indexName)
	}
	if err := ix.CheckKey(from); err != nil {
		return refCursor{}, err
	}
	if err := ix.CheckKey(to); err != nil {
		return refCursor{}, err
	}
	var scratch [2][64]byte // short bounds encode on the stack
	lo := after
	if after == nil {
		lo = appendKey(scratch[0][:0], from)
	}
	cur := refCursor{slab: c.slabs[ix.spec.Schema], origins: c.origins[ix.spec.Schema], it: ix.tree.seek(lo, after != nil)}
	if to != nil {
		hi := appendKey(scratch[1][:0], to)
		cur.end = ix.tree.seek(hi, false)
		if bytes.Compare(lo, hi) >= 0 {
			cur.it = cur.end // an empty range
		}
	}
	return cur, nil
}

// Next moves to the next entry in range and reports whether there is one.
func (cur *refCursor) Next() bool {
	if cur.started && cur.it != cur.end {
		cur.it.next()
	}
	cur.started = true
	return cur.it != cur.end && cur.it.valid()
}

// Key returns the current entry's tree key: the encoded index attributes,
// then the slab position that makes it unique.
func (cur *refCursor) Key() []byte { return cur.it.key() }

// Object returns the current entry's object.
func (cur *refCursor) Object() refObject { return cur.slab[cur.it.pos()] }

// Origin returns the current object's stamped origin id (0 when the
// schema has none).
func (cur *refCursor) Origin() uint64 {
	if pos := cur.it.pos(); pos < len(cur.origins) {
		return cur.origins[pos]
	}
	return 0
}

// Iter streams objects in index order, starting at the first key >= from
// (nil = minimum), until yield returns false or the index is exhausted.
// from is a prefix of the index's attributes.
func (c *refContainer) Iter(indexName string, from Key, yield func(refObject) bool) error {
	return c.IterOrigins(indexName, from, func(o refObject, _ uint64) bool { return yield(o) })
}

// IterOrigins streams objects like Iter but also yields each object's
// stamped origin id (0 when the schema has none).
func (c *refContainer) IterOrigins(indexName string, from Key, yield func(refObject, uint64) bool) error {
	cur, err := c.Cursor(indexName, from, nil)
	if err != nil {
		return err
	}
	for cur.Next() && yield(cur.Object(), cur.Origin()) {
	}
	return nil
}

// Range collects objects whose index key (attribute prefix) lies in
// [from, to) — to is exclusive; nil bounds are open.
func (c *refContainer) Range(indexName string, from, to Key) ([]refObject, error) {
	cur, err := c.Cursor(indexName, from, to)
	if err != nil {
		return nil, err
	}
	var out []refObject
	for cur.Next() {
		out = append(out, cur.Object())
	}
	return out, nil
}

// refFrozen is a container's contents at one instant, for writing a snapshot
// while the container keeps taking inserts. Slabs and origin lists are
// append-only — an insert writes past their length or replaces the list,
// never an element in place — so their slice headers pin exactly the
// objects present when Freeze ran.
type refFrozen struct {
	name    string
	nextOID uint64
	schemas []*Schema // sorted by name
	slabs   [][]refObject
	origins [][]uint64
	indices []IndexSpec // sorted by name
}

// Freeze captures the container's contents for a later Snapshot. It costs
// O(schemas + indices), not O(objects): a caller holding the lock that
// serialises inserts can take it and write the snapshot after releasing
// that lock.
func (c *refContainer) Freeze() *refFrozen {
	f := &refFrozen{name: c.Name, nextOID: c.nextOID}
	for _, name := range c.Schemas() {
		f.schemas = append(f.schemas, c.schemas[name])
		f.slabs = append(f.slabs, c.slabs[name])
		f.origins = append(f.origins, c.origins[name])
	}
	for _, name := range c.Indices() {
		f.indices = append(f.indices, c.indices[name].spec)
	}
	return f
}

// hasOrigins reports whether any object carries a non-zero origin.
func (f *refFrozen) hasOrigins() bool {
	for _, origins := range f.origins {
		for _, o := range origins {
			if o != 0 {
				return true
			}
		}
	}
	return false
}

// Snapshot writes the container to w (gzip-compressed binary).
func (c *refContainer) Snapshot(w io.Writer) error { return c.Freeze().Snapshot(w) }

// Snapshot writes the frozen contents to w in refContainer.Snapshot's format.
func (f *refFrozen) Snapshot(w io.Writer) error {
	withOrigins := f.hasOrigins()
	magic := snapMagic
	if withOrigins {
		magic = snapMagic2
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	e := &snapEnc{w: bw}
	e.str(f.name)
	e.u64(f.nextOID)
	e.u64(uint64(len(f.schemas)))
	for i, sch := range f.schemas {
		e.str(sch.Name)
		e.u64(uint64(len(sch.Attrs)))
		for _, a := range sch.Attrs {
			e.str(a.Name)
			e.u64(uint64(a.Type))
		}
		slab, origins := f.slabs[i], f.origins[i]
		e.u64(uint64(len(slab)))
		for pos, obj := range slab {
			for j, v := range obj {
				e.refValue(sch.Attrs[j].Type, v)
			}
			if withOrigins {
				var o uint64
				if pos < len(origins) {
					o = origins[pos]
				}
				e.u64(o)
			}
		}
	}
	e.u64(uint64(len(f.indices)))
	for _, spec := range f.indices {
		e.str(spec.Name)
		e.str(spec.Schema)
		e.u64(uint64(len(spec.Attrs)))
		for _, a := range spec.Attrs {
			e.str(a)
		}
	}
	if e.err != nil {
		return e.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

func (e *snapEnc) refValue(t Type, v any) {
	switch t {
	case TypeInt64:
		e.u64(uint64(v.(int64)))
	case TypeUint64:
		e.u64(v.(uint64))
	case TypeFloat64:
		e.u64(math.Float64bits(v.(float64)))
	case TypeString:
		e.str(v.(string))
	}
}

// refAppendWALRecord appends the body of one record holding a prefix of objs
// to rec (a Frame.Begin buffer) and reports how many objects it holds: all
// of them unless the body would pass the record bound, and always at least
// one.
func refAppendWALRecord(rec []byte, schema string, objs []refObject, origins []uint64, token uint64) ([]byte, int, error) {
	originAt := func(i int) uint64 {
		if origins == nil {
			return 0
		}
		return origins[i]
	}
	if len(objs) == 1 && token == 0 {
		rec = appendU32(rec, uint32(len(schema)))
		rec = append(rec, schema...)
		rec, err := refAppendWALRow(rec, objs[0], originAt(0))
		return rec, 1, err
	}
	rec = appendU32(rec, uint32(len(schema))|walBatch)
	rec = append(rec, schema...)
	rec = binary.LittleEndian.AppendUint64(rec, token)
	at := len(rec)
	rec = appendU32(rec, 0) // the row count, filled in below
	n := 0
	for n < len(objs) {
		end := len(rec)
		var err error
		if rec, err = refAppendWALRow(rec, objs[n], originAt(n)); err != nil {
			return nil, 0, err
		}
		if n > 0 && len(rec)-FrameHeader > walMaxRecord {
			rec = rec[:end]
			break
		}
		n++
	}
	binary.LittleEndian.PutUint32(rec[at:], uint32(n))
	return rec, n, nil
}

// refAppendWALRow appends one row to b.
func refAppendWALRow(b []byte, obj refObject, origin uint64) ([]byte, error) {
	if len(obj) > math.MaxUint16 {
		return nil, fmt.Errorf("sos: wal record with %d values", len(obj))
	}
	b = binary.LittleEndian.AppendUint64(b, origin)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(obj)))
	for _, v := range obj {
		switch val := v.(type) {
		case int64:
			b = append(b, walInt64)
			b = binary.LittleEndian.AppendUint64(b, uint64(val))
		case uint64:
			b = append(b, walUint64)
			b = binary.LittleEndian.AppendUint64(b, val)
		case float64:
			b = append(b, walFloat64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val))
		case string:
			b = append(b, walString)
			b = appendU32(b, uint32(len(val)))
			b = append(b, val...)
		default:
			return nil, fmt.Errorf("sos: wal cannot encode value of type %T", v)
		}
	}
	return b, nil
}

// refReplayWALTo replays the whole log like replayWAL, but only up to floor: it stops at
// the first batch record whose token is above floor, as if the log were
// torn there. Consumed then ends just before that record, and Dropped
// counts the rows of every clean record from it on, which the caller
// discards by truncating the log to Consumed. A record is applied whole
// or not at all: a structurally corrupt one is the torn tail.
func refReplayWALTo(st WALStore, floor uint64, apply func(schema string, obj refObject, origin uint64) error) (WALReplay, error) {
	var r WALReplay
	var rows []refObject
	var origins []uint64
	_, _, err := ReplayFrames(st, func(body []byte) error {
		h, err := decodeWALHead(body, new(dict))
		if err != nil || h.v2 {
			return ErrStopReplay // the reference reads v1 records only
		}
		schema, token, n, b := h.schema, h.token, h.rows, h.rest
		if r.Above != 0 || token > floor {
			if r.Above == 0 {
				r.Above = token
			}
			r.Dropped += n
			return nil
		}
		rows, origins = rows[:0], origins[:0]
		for i := 0; i < n; i++ {
			var obj refObject
			var origin uint64
			if obj, origin, b, err = refDecodeWALRow(b); err != nil {
				return ErrStopReplay
			}
			rows, origins = append(rows, obj), append(origins, origin)
		}
		if len(b) != 0 {
			return ErrStopReplay // trailing bytes: corrupt structure
		}
		for i, obj := range rows {
			if err := apply(schema, obj, origins[i]); err != nil {
				return err
			}
			r.Rows++
		}
		r.Consumed += int64(FrameHeader + len(body))
		return nil
	})
	if err != nil {
		return r, fmt.Errorf("sos: wal replay: %w", err)
	}
	return r, nil
}

// refDecodeWALRow reads one row off the front of b.
func refDecodeWALRow(b []byte) (obj refObject, origin uint64, rest []byte, err error) {
	if len(b) < walMinRow {
		return nil, 0, nil, errShortRecord
	}
	origin = binary.LittleEndian.Uint64(b)
	nvals := int(binary.LittleEndian.Uint16(b[8:]))
	b = b[walMinRow:]
	if nvals*walMinValue > len(b) {
		return nil, 0, nil, errShortRecord
	}
	obj = make(refObject, 0, nvals)
	for i := 0; i < nvals; i++ {
		if len(b) < 1 {
			return nil, 0, nil, errShortRecord
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case walInt64, walUint64, walFloat64:
			if len(b) < 8 {
				return nil, 0, nil, errShortRecord
			}
			u := binary.LittleEndian.Uint64(b)
			b = b[8:]
			switch tag {
			case walInt64:
				obj = append(obj, int64(u))
			case walUint64:
				obj = append(obj, u)
			default:
				obj = append(obj, math.Float64frombits(u))
			}
		case walString:
			if len(b) < 4 {
				return nil, 0, nil, errShortRecord
			}
			n := binary.LittleEndian.Uint32(b)
			b = b[4:]
			if uint32(len(b)) < n {
				return nil, 0, nil, errShortRecord
			}
			obj = append(obj, string(b[:n]))
			b = b[n:]
		default:
			return nil, 0, nil, fmt.Errorf("sos: unknown wal value tag %d", tag)
		}
	}
	return obj, origin, b, nil
}
