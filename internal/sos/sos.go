// Package sos is the single-node Scalable Object Store underlying DSOS:
// schemas of typed attributes, append-only object slabs (partitions) of
// typed rows (row.go), B+tree indices over single or joint attribute keys
// (the paper's job_rank_time-style indices), ordered iteration, and binary
// snapshot persistence. The distributed layer (package dsos) shards
// objects over several of these stores and merges parallel index scans.
package sos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Type is an attribute type.
type Type int

// Attribute types supported by schemas.
const (
	TypeInt64 Type = iota
	TypeUint64
	TypeFloat64
	TypeString
)

func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeUint64:
		return "uint64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// AttrSpec declares one schema attribute.
type AttrSpec struct {
	Name string
	Type Type
}

// Schema is a named, ordered attribute layout.
type Schema struct {
	Name   string
	Attrs  []AttrSpec
	byName map[string]int
}

// NewSchema builds a schema; attribute names must be unique.
func NewSchema(name string, attrs []AttrSpec) (*Schema, error) {
	if name == "" {
		return nil, errors.New("sos: empty schema name")
	}
	s := &Schema{Name: name, Attrs: attrs, byName: map[string]int{}}
	for i, a := range attrs {
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("sos: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Key is a composite index key: attribute values, as a scan bound. The
// tree stores keys encoded (key.go) and followed by the row's slab
// position, which makes each unique.
type Key []any

// IndexSpec declares a (possibly joint) index, e.g. {"job_id","rank",
// "timestamp"} named "job_rank_time".
type IndexSpec struct {
	Name   string
	Schema string
	Attrs  []string
}

// Index is a live B+tree over a composite key.
type Index struct {
	spec     IndexSpec
	attrIdxs []int
	types    []Type // the type of each key attribute
	tree     *btree
	key      []byte // the tree key being inserted
}

// insert adds the row w, stored at slab position pos, under its tree key:
// the index attributes encoded from the words, then the position.
func (ix *Index) insert(w []uint64, pos int) {
	k := ix.key[:0]
	for j, ai := range ix.attrIdxs {
		k = appendWord(k, ix.types[j], w[ai])
	}
	ix.key = binary.BigEndian.AppendUint32(k, uint32(pos))
	ix.tree.insert(ix.key)
}

// Spec returns the index declaration.
func (ix *Index) Spec() IndexSpec { return ix.spec }

// CheckKey reports an error unless k can bound a scan of the index: at
// most one element per key attribute, each of that attribute's type. A
// bound of the wrong type cannot be ordered against the tree's keys.
func (ix *Index) CheckKey(k Key) error {
	if len(k) > len(ix.types) {
		return fmt.Errorf("sos: index %q: a bound of %d values, the key has %d attributes", ix.spec.Name, len(k), len(ix.types))
	}
	for i, v := range k {
		if !boundMatches(ix.types[i], v) {
			return fmt.Errorf("sos: index %q: bound value %d is %T, attribute %q is %s", ix.spec.Name, i, v, ix.spec.Attrs[i], ix.types[i])
		}
	}
	return nil
}

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return ix.tree.size }

// Container is one SOS container: schemas, object slabs, the string
// dictionary their rows share, and indices.
type Container struct {
	Name    string
	schemas map[string]*Schema
	slabs   map[string]*slab
	dict    dict
	indices map[string]*Index
	// bySchema lists each schema's indices, which every insert updates.
	bySchema map[string][]*Index
	// nextOID counts the objects ever inserted. No tree key holds it; the
	// snapshot format does.
	nextOID uint64
	// origins holds the cluster-assigned logical insert id of each slab
	// position (replicated DSOS writes stamp the same origin on every
	// replica so quorum reads can collapse copies). The slice is allocated
	// lazily on the first non-zero origin, so unreplicated containers pay
	// nothing and keep their exact pre-replication memory and snapshot
	// layout.
	origins map[string][]uint64
}

// NewContainer creates an empty container.
func NewContainer(name string) *Container {
	return &Container{
		Name:     name,
		schemas:  map[string]*Schema{},
		slabs:    map[string]*slab{},
		indices:  map[string]*Index{},
		bySchema: map[string][]*Index{},
		origins:  map[string][]uint64{},
	}
}

// AddSchema registers a schema.
func (c *Container) AddSchema(s *Schema) error {
	if _, dup := c.schemas[s.Name]; dup {
		return fmt.Errorf("sos: schema %q already exists", s.Name)
	}
	c.schemas[s.Name] = s
	c.slabs[s.Name] = newSlab(schemaTypes(s))
	return nil
}

// Schema returns the named schema, or nil.
func (c *Container) Schema(name string) *Schema { return c.schemas[name] }

// Schemas returns all schema names, sorted.
func (c *Container) Schemas() []string {
	out := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// maxIndexAttrs is the most attributes an index key holds: at least four
// of its tree keys must fit a node.
const maxIndexAttrs = (nodeBytes/4 - KeySuffixLen) / 8

// AddIndex declares an index; existing objects are back-indexed. Every
// index attribute is an int64, a uint64 or a float64: a string has no
// fixed-width encoding that sorts by value.
func (c *Container) AddIndex(spec IndexSpec) (*Index, error) {
	if _, dup := c.indices[spec.Name]; dup {
		return nil, fmt.Errorf("sos: index %q already exists", spec.Name)
	}
	sch := c.schemas[spec.Schema]
	if sch == nil {
		return nil, fmt.Errorf("sos: index %q references unknown schema %q", spec.Name, spec.Schema)
	}
	if len(spec.Attrs) > maxIndexAttrs {
		return nil, fmt.Errorf("sos: index %q has %d attributes, at most %d", spec.Name, len(spec.Attrs), maxIndexAttrs)
	}
	idxs := make([]int, len(spec.Attrs))
	types := make([]Type, len(spec.Attrs))
	for i, a := range spec.Attrs {
		pos := sch.AttrIndex(a)
		if pos < 0 {
			return nil, fmt.Errorf("sos: index %q references unknown attribute %q", spec.Name, a)
		}
		if sch.Attrs[pos].Type == TypeString {
			return nil, fmt.Errorf("sos: index %q: attribute %q is a string, which no index can key on", spec.Name, a)
		}
		idxs[i], types[i] = pos, sch.Attrs[pos].Type
	}
	width := 8*len(idxs) + KeySuffixLen
	ix := &Index{spec: spec, attrIdxs: idxs, types: types, tree: newBTree(width), key: make([]byte, 0, width)}
	c.indices[spec.Name] = ix
	c.bySchema[spec.Schema] = append(c.bySchema[spec.Schema], ix)
	s := c.slabs[spec.Schema]
	w := make([]uint64, s.width)
	for pos := 0; pos < s.n; pos++ {
		s.object(pos, nil).copyWords(w)
		ix.insert(w, pos)
	}
	return ix, nil
}

// Index returns the named index, or nil.
func (c *Container) Index(name string) *Index { return c.indices[name] }

// Indices returns all index names, sorted.
func (c *Container) Indices() []string {
	out := make([]string, 0, len(c.indices))
	for n := range c.indices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends an object to the schema's slab and updates every index on
// that schema. The object's values must match the schema's types.
func (c *Container) Insert(schemaName string, obj Object) error {
	return c.InsertOrigin(schemaName, obj, 0)
}

// InsertOrigin inserts like Insert and records origin, a cluster-assigned
// logical insert id. Replicated DSOS writes stamp the same non-zero origin
// on every replica so a quorum read can recognise copies of one logical
// object; origin 0 means "unreplicated" and costs nothing.
func (c *Container) InsertOrigin(schemaName string, obj Object, origin uint64) error {
	if err := c.Check(schemaName, obj); err != nil {
		return err
	}
	c.InsertChecked(schemaName, obj, origin)
	return nil
}

// maxRows bounds a schema's rows: a tree key's suffix is the row's slab
// position in 4 bytes, which must never wrap and alias two rows.
const maxRows = 1<<32 - 1

// errFull is the error for an insert into a schema that holds maxRows.
func errFull(schema string) error {
	return fmt.Errorf("sos: schema %q full: it holds %d rows", schema, maxRows)
}

// Check reports whether obj can be inserted under schemaName: the schema
// exists, has room, and the row's attribute types are the schema's.
func (c *Container) Check(schemaName string, obj Object) error {
	s := c.slabs[schemaName]
	if s == nil {
		return fmt.Errorf("sos: unknown schema %q", schemaName)
	}
	if s.n >= maxRows {
		return errFull(schemaName)
	}
	if obj.Len() != s.width {
		return fmt.Errorf("sos: object has %d values, schema %q has %d attrs", obj.Len(), schemaName, s.width)
	}
	if slices.Equal(obj.types(), s.types) {
		return nil
	}
	for i, t := range s.types {
		if obj.Type(i) != t {
			return fmt.Errorf("sos: attribute %q: value %s does not match %s", c.schemas[schemaName].Attrs[i].Name, obj.typeName(i), t)
		}
	}
	return nil
}

// InsertChecked inserts like InsertOrigin an object that Check accepted,
// without checking it again: it serves a caller that logs the rows it
// checked before storing them. An unchecked object can panic in an index's
// key encoder.
func (c *Container) InsertChecked(schemaName string, obj Object, origin uint64) {
	s := c.slabs[schemaName]
	pos := s.n
	w := s.grow()
	obj.copyWords(w)
	for _, i := range s.strCols {
		w[i] = c.dict.from(obj.strs, w[i])
	}
	if origin != 0 && c.origins[schemaName] == nil {
		// First stamped insert: backfill zeros for earlier objects.
		c.origins[schemaName] = make([]uint64, pos)
	}
	if c.origins[schemaName] != nil {
		c.origins[schemaName] = append(c.origins[schemaName], origin)
	}
	c.nextOID++
	for _, ix := range c.bySchema[schemaName] {
		ix.insert(w, pos)
	}
}

// boundMatches reports whether v, an element of a scan bound, has type t.
func boundMatches(t Type, v any) bool {
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
	}
	return false
}

// Count returns the number of objects stored under schema.
func (c *Container) Count(schema string) int {
	if s := c.slabs[schema]; s != nil {
		return s.n
	}
	return 0
}

// Cursor walks one index in key order over an attribute-prefix range
// [from, to). It copies nothing and holds no lock: Object returns a view of
// the container's own memory, which stays valid after the container is
// modified. The cursor itself, and the bytes Key returns, are valid until
// the container is next modified; a scan that spans modifications reopens
// with CursorAfter a copy of the last Key it saw.
type Cursor struct {
	rows    slab
	strs    []string
	origins []uint64
	it, end iterator // end is the first entry past the range
	started bool
}

// Cursor opens a cursor on the named index at the first key >= from (nil
// = the minimum) that stops before to (nil = open). Both bounds are
// prefixes of the index's attributes and must have their types
// (Index.CheckKey).
func (c *Container) Cursor(indexName string, from, to Key) (Cursor, error) {
	return c.open(indexName, from, nil, to)
}

// CursorAfter opens a cursor just past after, a tree key (Cursor.Key)
// that a cursor on the same index returned, that stops before to. Tree keys
// end in the row's unique slab position, so the scan resumes exactly behind
// the last entry it saw.
func (c *Container) CursorAfter(indexName string, after []byte, to Key) (Cursor, error) {
	return c.open(indexName, nil, after, to)
}

// open encodes the bounds once and seeks both ends of the range, so
// stepping the cursor compares positions, not keys.
func (c *Container) open(indexName string, from Key, after []byte, to Key) (Cursor, error) {
	ix := c.indices[indexName]
	if ix == nil {
		return Cursor{}, fmt.Errorf("sos: unknown index %q", indexName)
	}
	if err := ix.CheckKey(from); err != nil {
		return Cursor{}, err
	}
	if err := ix.CheckKey(to); err != nil {
		return Cursor{}, err
	}
	var scratch [2][64]byte // short bounds encode on the stack
	lo := after
	if after == nil {
		lo = appendKey(scratch[0][:0], from)
	}
	cur := Cursor{rows: c.slabs[ix.spec.Schema].view(), strs: c.dict.strs, origins: c.origins[ix.spec.Schema], it: ix.tree.seek(lo, after != nil)}
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
func (cur *Cursor) Next() bool {
	if cur.started && cur.it != cur.end {
		cur.it.next()
	}
	cur.started = true
	return cur.it != cur.end && cur.it.valid()
}

// Key returns the current entry's tree key: the encoded index attributes,
// then the KeySuffixLen-byte slab position that makes it unique. The bytes
// are the tree's own, which an insert into their node moves: they are valid
// until the container is next modified, and a caller that keeps them past
// that copies them first.
func (cur *Cursor) Key() []byte { return cur.it.key() }

// Object returns the current entry's object, a view of its page and the
// container's dictionary.
func (cur *Cursor) Object() Object { return cur.rows.object(cur.it.pos(), cur.strs) }

// Origin returns the current object's stamped origin id (0 when the
// schema has none).
func (cur *Cursor) Origin() uint64 {
	if len(cur.origins) == 0 {
		return 0 // no need to decode the position
	}
	if pos := cur.it.pos(); pos < len(cur.origins) {
		return cur.origins[pos]
	}
	return 0
}

// Iter streams objects in index order, starting at the first key >= from
// (nil = minimum), until yield returns false or the index is exhausted.
// from is a prefix of the index's attributes.
func (c *Container) Iter(indexName string, from Key, yield func(Object) bool) error {
	return c.IterOrigins(indexName, from, func(o Object, _ uint64) bool { return yield(o) })
}

// IterOrigins streams objects like Iter but also yields each object's
// stamped origin id (0 when the schema has none).
func (c *Container) IterOrigins(indexName string, from Key, yield func(Object, uint64) bool) error {
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
func (c *Container) Range(indexName string, from, to Key) ([]Object, error) {
	cur, err := c.Cursor(indexName, from, to)
	if err != nil {
		return nil, err
	}
	var out []Object
	for cur.Next() {
		out = append(out, cur.Object())
	}
	return out, nil
}
