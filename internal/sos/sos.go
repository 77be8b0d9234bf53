// Package sos is the single-node Scalable Object Store underlying DSOS:
// schemas of typed attributes, append-only object slabs (partitions),
// B+tree indices over single or joint attribute keys (the paper's
// job_rank_time-style indices), ordered iteration, and binary snapshot
// persistence. The distributed layer (package dsos) shards objects over
// several of these stores and merges parallel index scans.
package sos

import (
	"errors"
	"fmt"
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

// Object is one stored tuple, values aligned with the schema's attributes.
type Object []any

// Key is a composite index key (attribute values, plus a trailing object id
// added internally for uniqueness).
type Key []any

// CompareKeys orders composite keys element-wise. Supported element types:
// int64, uint64, float64, string. Shorter keys order before longer ones
// with an equal prefix (enabling prefix scans).
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareValue(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func compareValue(a, b any) int {
	switch av := a.(type) {
	case int64:
		bv := b.(int64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	case uint64:
		bv := b.(uint64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	case float64:
		bv := b.(float64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	case string:
		bv := b.(string)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	default:
		panic(fmt.Sprintf("sos: unsupported key type %T", a))
	}
	return 0
}

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
	tree     *btree
}

// Spec returns the index declaration.
func (ix *Index) Spec() IndexSpec { return ix.spec }

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return ix.tree.size }

// Container is one SOS container: schemas, object slabs and indices.
type Container struct {
	Name    string
	schemas map[string]*Schema
	slabs   map[string][]Object
	indices map[string]*Index
	nextOID uint64
	// origins holds the cluster-assigned logical insert id of each slab
	// position (replicated DSOS writes stamp the same origin on every
	// replica so quorum reads can collapse copies). The slice is allocated
	// lazily on the first non-zero origin, so unreplicated containers pay
	// nothing and keep their exact pre-replication memory and snapshot
	// layout.
	origins map[string][]uint64
	// keys carves index-key backings from a shared []any chunk instead of
	// one make per key. The B+trees retain every key for the container's
	// lifetime, so the chunks are never recycled — they simply become the
	// keys' storage, at one allocation per keyChunk values instead of one
	// per key per index.
	keys []any
}

// keyChunk sizes the shared index-key chunk (values, not keys).
const keyChunk = 4096

// takeKey carves a zero-length, capacity-capped key window of capacity n.
func (c *Container) takeKey(n int) Key {
	if len(c.keys) < n {
		size := keyChunk
		if n > size {
			size = n
		}
		c.keys = make([]any, size)
	}
	k := Key(c.keys[:0:n])
	c.keys = c.keys[n:]
	return k
}

// NewContainer creates an empty container.
func NewContainer(name string) *Container {
	return &Container{
		Name:    name,
		schemas: map[string]*Schema{},
		slabs:   map[string][]Object{},
		indices: map[string]*Index{},
		origins: map[string][]uint64{},
	}
}

// AddSchema registers a schema.
func (c *Container) AddSchema(s *Schema) error {
	if _, dup := c.schemas[s.Name]; dup {
		return fmt.Errorf("sos: schema %q already exists", s.Name)
	}
	c.schemas[s.Name] = s
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

// AddIndex declares an index; existing objects are back-indexed.
func (c *Container) AddIndex(spec IndexSpec) (*Index, error) {
	if _, dup := c.indices[spec.Name]; dup {
		return nil, fmt.Errorf("sos: index %q already exists", spec.Name)
	}
	sch := c.schemas[spec.Schema]
	if sch == nil {
		return nil, fmt.Errorf("sos: index %q references unknown schema %q", spec.Name, spec.Schema)
	}
	idxs := make([]int, len(spec.Attrs))
	for i, a := range spec.Attrs {
		pos := sch.AttrIndex(a)
		if pos < 0 {
			return nil, fmt.Errorf("sos: index %q references unknown attribute %q", spec.Name, a)
		}
		idxs[i] = pos
	}
	ix := &Index{spec: spec, attrIdxs: idxs, tree: newBTree()}
	c.indices[spec.Name] = ix
	for pos, obj := range c.slabs[spec.Schema] {
		ix.tree.insert(c.indexKey(ix, obj, uint64(pos)), objRef{schema: spec.Schema, pos: pos})
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

// indexKey builds the composite tree key for obj. oid is the pre-boxed
// object id (any holding a uint64): the caller boxes it once and shares
// the box across every index on the schema instead of re-boxing per
// index.
func (c *Container) indexKey(ix *Index, obj Object, oid any) Key {
	key := c.takeKey(len(ix.attrIdxs) + 1)
	for _, ai := range ix.attrIdxs {
		key = append(key, obj[ai])
	}
	return append(key, oid)
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
	sch := c.schemas[schemaName]
	if sch == nil {
		return fmt.Errorf("sos: unknown schema %q", schemaName)
	}
	if len(obj) != len(sch.Attrs) {
		return fmt.Errorf("sos: object has %d values, schema %q has %d attrs", len(obj), schemaName, len(sch.Attrs))
	}
	for i, v := range obj {
		if !typeMatches(sch.Attrs[i].Type, v) {
			return fmt.Errorf("sos: attribute %q: value %T does not match %s", sch.Attrs[i].Name, v, sch.Attrs[i].Type)
		}
	}
	pos := len(c.slabs[schemaName])
	c.slabs[schemaName] = append(c.slabs[schemaName], obj)
	if origin != 0 && c.origins[schemaName] == nil {
		// First stamped insert: backfill zeros for earlier objects.
		c.origins[schemaName] = make([]uint64, pos)
	}
	if c.origins[schemaName] != nil {
		c.origins[schemaName] = append(c.origins[schemaName], origin)
	}
	var oid any = c.nextOID // boxed once, shared by every index
	c.nextOID++
	for _, ix := range c.indices {
		if ix.spec.Schema == schemaName {
			ix.tree.insert(c.indexKey(ix, obj, oid), objRef{schema: schemaName, pos: pos})
		}
	}
	return nil
}

// originAt returns the origin stamped on the given slab position (0 when
// the schema has no stamped inserts).
func (c *Container) originAt(schema string, pos int) uint64 {
	if o := c.origins[schema]; pos < len(o) {
		return o[pos]
	}
	return 0
}

func typeMatches(t Type, v any) bool {
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
func (c *Container) Count(schema string) int {
	return len(c.slabs[schema])
}

// Iter streams objects in index order, starting at the first key >= from
// (nil = minimum), until yield returns false or the index is exhausted.
// from is a prefix of the index's attributes.
func (c *Container) Iter(indexName string, from Key, yield func(Object) bool) error {
	ix := c.indices[indexName]
	if ix == nil {
		return fmt.Errorf("sos: unknown index %q", indexName)
	}
	it := ix.tree.seek(from)
	for it.valid() {
		_, ref := it.entry()
		if !yield(c.slabs[ref.schema][ref.pos]) {
			return nil
		}
		it.next()
	}
	return nil
}

// Range collects objects whose index key (attribute prefix) lies in
// [from, to) — to is exclusive; nil bounds are open.
func (c *Container) Range(indexName string, from, to Key) ([]Object, error) {
	var out []Object
	err := c.Iter(indexName, from, func(o Object) bool {
		if to != nil {
			ix := c.indices[indexName]
			key := make(Key, 0, len(ix.attrIdxs))
			for _, ai := range ix.attrIdxs {
				key = append(key, o[ai])
			}
			if CompareKeys(key, to) >= 0 {
				return false
			}
		}
		out = append(out, o)
		return true
	})
	return out, err
}

// IterOrigins streams objects like Iter but also yields each object's
// stamped origin id (0 when the schema has none).
func (c *Container) IterOrigins(indexName string, from Key, yield func(Object, uint64) bool) error {
	ix := c.indices[indexName]
	if ix == nil {
		return fmt.Errorf("sos: unknown index %q", indexName)
	}
	it := ix.tree.seek(from)
	for it.valid() {
		_, ref := it.entry()
		if !yield(c.slabs[ref.schema][ref.pos], c.originAt(ref.schema, ref.pos)) {
			return nil
		}
		it.next()
	}
	return nil
}

// RangeOrigins collects objects like Range alongside their origin ids, in
// matching order.
func (c *Container) RangeOrigins(indexName string, from, to Key) ([]Object, []uint64, error) {
	var out []Object
	var origins []uint64
	err := c.IterOrigins(indexName, from, func(o Object, origin uint64) bool {
		if to != nil {
			ix := c.indices[indexName]
			key := make(Key, 0, len(ix.attrIdxs))
			for _, ai := range ix.attrIdxs {
				key = append(key, o[ai])
			}
			if CompareKeys(key, to) >= 0 {
				return false
			}
		}
		out = append(out, o)
		origins = append(origins, origin)
		return true
	})
	return out, origins, err
}
