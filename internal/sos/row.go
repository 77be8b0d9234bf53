package sos

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Rows are stored as fixed-width words, one 8-byte word per attribute: an
// int64 or a uint64 as it is, a float64 as its IEEE bits, and a string as
// an id into a string table. In a container the table is the container's
// dictionary; a row built outside one (NewObject, RowBuilder, a WAL replay)
// carries its own, and insertion interns its strings into the dictionary.
// Only this file knows the layout: every reader goes through Object's
// word accessor.
//
// A schema's rows live in pages of up to 64 KiB, which never move and
// whose rows never change once written. The page being filled holds words;
// a full page is sealed into packed rows (seal): each attribute keeps the
// page's minimum word once, as its base, and each row only its offset from
// the base, in as few whole bytes as the page's widest offset needs. A page
// holds no pointer, so the garbage collector never scans one. The
// dictionary only grows — a string once given an id keeps it — so a slice
// header of it taken under the lock that serialises inserts stays valid
// after the lock is released, and so does a view of a stored row.

// typeOther is the type NewObject records for a value of no attribute
// type; the word indexes the value's Go type name, for Check's error.
const typeOther Type = -1

// Object is one row, aligned with its schema's attributes: a typed value
// holding the row's words, the string table its string words index, and
// each attribute's type. A stored row (Cursor.Object) is a view of the
// container's page and dictionary and costs no allocation; the view stays
// valid after the container grows. Build a row with NewObject or a
// RowBuilder. The getters panic on an attribute of another type, as a type
// assertion on the value would.
//
// An Object is three pointers, as small as the []any header it replaced,
// so result slices and query chunks of rows cost what they did: the row's
// first byte (nil for a row without attributes), the first string of the
// table (nil for an empty one; every string word is an id below its
// length), and the row's type, which every row of a kind, or of a sealed
// page, shares.
type Object struct {
	p    unsafe.Pointer
	strs *string
	typ  *rowType
}

// rowType is the attribute types of a kind of row and, for the rows of a
// sealed page, where each attribute sits in a row.
type rowType struct {
	types  []Type
	cols   []col   // nil: the row is one 8-byte word per attribute
	stride uintptr // the bytes from a row of the page to the next
}

// col is one attribute of a sealed page's rows: the bytes at off, read as
// a little-endian word and masked to the attribute's width, are the
// word's offset from base.
type col struct {
	base, mask uint64
	off        uintptr
}

// NewObject builds a row from its values, each an int64, uint64, float64
// or string. A value of any other type makes the row fail Container.Check.
// It is the constructor for cold code and tests; ingest builds rows with a
// RowBuilder, and both kinds take the same insert path.
func NewObject(vals ...any) Object {
	w, types := make([]uint64, len(vals)), make([]Type, len(vals))
	var strs []string
	for i, v := range vals {
		switch v := v.(type) {
		case int64:
			types[i], w[i] = TypeInt64, uint64(v)
		case uint64:
			types[i], w[i] = TypeUint64, v
		case float64:
			types[i], w[i] = TypeFloat64, math.Float64bits(v)
		case string:
			types[i], w[i] = TypeString, uint64(len(strs))
			strs = append(strs, v)
		default:
			types[i], w[i] = typeOther, uint64(len(strs))
			strs = append(strs, goTypeName(v))
		}
	}
	return wordRow(w, first(strs), &rowType{types: types})
}

// wordRow returns the row of words w, whose strings the table that starts
// at strs holds.
func wordRow(w []uint64, strs *string, typ *rowType) Object {
	return Object{p: unsafe.Pointer(first(w)), strs: strs, typ: typ}
}

// first returns a pointer to s's first element, or nil for an empty s.
func first[E any](s []E) *E {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// goTypeName names v's Go type for the error of a row that holds it.
//
//lint:allow hotalloc only rows that fail their check reach it
func goTypeName(v any) string { return fmt.Sprintf("%T", v) }

// Len returns the number of attributes.
func (o Object) Len() int { return len(o.types()) }

// Type returns attribute i's type.
func (o Object) Type(i int) Type { return o.types()[i] }

// Int returns int64 attribute i.
func (o Object) Int(i int) int64 {
	o.want(i, TypeInt64)
	return int64(o.word(i))
}

// Uint returns uint64 attribute i.
func (o Object) Uint(i int) uint64 {
	o.want(i, TypeUint64)
	return o.word(i)
}

// Float returns float64 attribute i.
func (o Object) Float(i int) float64 {
	o.want(i, TypeFloat64)
	return math.Float64frombits(o.word(i))
}

// Str returns string attribute i.
func (o Object) Str(i int) string {
	o.want(i, TypeString)
	return o.str(o.word(i))
}

// Value returns attribute i boxed: an int64, uint64, float64 or string
// (nil for a value NewObject could not type). It serves generic code.
func (o Object) Value(i int) any {
	w := o.word(i)
	switch o.Type(i) {
	case TypeInt64:
		return int64(w)
	case TypeUint64:
		return w
	case TypeFloat64:
		return math.Float64frombits(w)
	case TypeString:
		return o.str(w)
	}
	return nil
}

// Values returns every attribute boxed, in schema order.
func (o Object) Values() []any {
	out := make([]any, o.Len())
	for i := range out {
		out[i] = o.Value(i)
	}
	return out
}

func (o Object) types() []Type {
	if o.typ == nil {
		return nil
	}
	return o.typ.types
}

// word returns attribute i's word in one load: from a row of words, or
// from a packed row, whose page's slack keeps the 8 bytes at any of its
// attributes inside the page.
func (o Object) word(i int) uint64 {
	if o.typ.cols == nil {
		_ = o.typ.types[i]
		return *(*uint64)(unsafe.Add(o.p, 8*i))
	}
	c := &o.typ.cols[i]
	return c.base + binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(o.p, c.off))[:])&c.mask
}

// copyWords copies the row's words into w, which has the row's length.
func (o Object) copyWords(w []uint64) {
	if o.typ.cols == nil {
		copy(w, unsafe.Slice((*uint64)(o.p), len(w)))
		return
	}
	for i := range w {
		w[i] = o.word(i)
	}
}

// str returns the string of id, a string word of the row.
func (o Object) str(id uint64) string { return strAt(o.strs, id) }

// strAt returns element id of the string table that starts at strs; id is
// below the table's length.
func strAt(strs *string, id uint64) string {
	return *(*string)(unsafe.Add(unsafe.Pointer(strs), uintptr(id)*unsafe.Sizeof("")))
}

// String formats the row as its Values.
func (o Object) String() string { return fmt.Sprint(o.Values()) }

func (o Object) want(i int, t Type) {
	if o.Type(i) != t {
		panic("sos: attribute " + strconv.Itoa(i) + " is " + o.typeName(i) + ", not " + t.String())
	}
}

// typeName names attribute i's type; for a value NewObject could not type,
// its Go type.
func (o Object) typeName(i int) string {
	if o.Type(i) == typeOther {
		return o.str(o.word(i))
	}
	return o.Type(i).String()
}

// schemaTypes returns the type of each of the schema's attributes.
func schemaTypes(s *Schema) []Type {
	types := make([]Type, len(s.Attrs))
	for i, a := range s.Attrs {
		types[i] = a.Type
	}
	return types
}

// pageWords is the most words a page holds: a page takes as many rows as
// fit, rounded down to a power of two, and at least one.
const pageWords = 1 << 13

// slab is one schema's rows, in pages. A copy of it taken by view is a
// view of the rows present when it was taken, which later inserts and
// seals leave intact: the page directory's slots are only ever swapped
// whole, from the open page to the same rows sealed, and an open page's
// words are only reused when no view was taken while it was open.
type slab struct {
	types   []Type
	strCols []int // the string attributes, whose words insert translates
	width   int
	shift   uint // a page holds 1<<shift rows
	pages   []atomic.Pointer[page]
	open    []uint64 // the last page's words, until it is sealed
	n       int
}

// page is one page's rows: the first, and their layout. viewed marks an
// open page a copy of the slab was taken from (view): a reader may still
// hold its words after it is sealed.
type page struct {
	rowType
	rows   unsafe.Pointer
	viewed atomic.Bool
}

func newSlab(types []Type) *slab {
	s := &slab{types: types, width: len(types)}
	for i, t := range types {
		if t == TypeString {
			s.strCols = append(s.strCols, i)
		}
	}
	s.shift = uint(bits.Len(uint(max(pageWords/max(s.width, 1), 1)))) - 1
	return s
}

// view returns a copy of s: a view of its rows, which later inserts and
// seals leave intact. Every view of a stored row comes from one.
func (s *slab) view() slab {
	if s.open != nil {
		s.pages[len(s.pages)-1].Load().viewed.Store(true)
	}
	return *s
}

// grow adds a row and returns its words, all zero. The first row of a
// page seals the full page before it, whose words the new page takes over
// unless a view may still read them.
func (s *slab) grow() []uint64 {
	if s.n>>s.shift == len(s.pages) {
		if !s.seal() {
			s.open = make([]uint64, s.width<<s.shift)
		}
		s.pages = append(s.pages, atomic.Pointer[page]{})
		s.pages[len(s.pages)-1].Store(&page{rowType: rowType{types: s.types, stride: 8 * uintptr(s.width)}, rows: unsafe.Pointer(first(s.open))})
	}
	off := (s.n & (1<<s.shift - 1)) * s.width
	s.n++
	return s.open[off : off+s.width : off+s.width]
}

// seal packs the full open page into rows of its own layout and swaps it
// into the page's slot. Each attribute's base is the page's least word,
// as an int64 for an int64 attribute and as bits otherwise, and its width
// the bytes of the greatest offset from it; a row is the offsets, packed,
// and the page ends in 8 bytes of slack so that any attribute is one load.
// It reports whether s.open, cleared, is free for the next page: no view
// was taken while the page was open.
func (s *slab) seal() bool {
	if s.open == nil {
		return false
	}
	filled := s.pages[len(s.pages)-1].Load()
	w, pg := s.open, &page{rowType: rowType{types: s.types, cols: make([]col, s.width)}}
	for j, t := range s.types {
		var flip uint64 // maps int64 order onto uint64 order
		if t == TypeInt64 {
			flip = 1 << 63
		}
		lo, hi := ^uint64(0), uint64(0)
		for r := j; r < len(w); r += s.width {
			lo, hi = min(lo, w[r]^flip), max(hi, w[r]^flip)
		}
		n := (bits.Len64(hi-lo) + 7) / 8
		pg.cols[j] = col{base: lo ^ flip, mask: 1<<(8*n) - 1, off: pg.stride}
		pg.stride += uintptr(n)
	}
	data := make([]byte, int(pg.stride)<<s.shift+8)
	pg.rows = unsafe.Pointer(&data[0])
	for r := 0; r < 1<<s.shift; r++ {
		row, p := w[r*s.width:(r+1)*s.width], unsafe.Add(pg.rows, uintptr(r)*pg.stride)
		for j := range row { // each store's high zero bytes are overwritten after it
			if c := &pg.cols[j]; c.mask != 0 {
				binary.LittleEndian.PutUint64((*[8]byte)(unsafe.Add(p, c.off))[:], row[j]-c.base)
			}
		}
	}
	s.pages[len(s.pages)-1].Store(pg)
	if filled.viewed.Load() {
		s.open = nil
		return false
	}
	clear(s.open)
	return true
}

// object returns a view of the row at pos, whose strings strs holds.
func (s *slab) object(pos int, strs []string) Object {
	pg := s.pages[pos>>s.shift].Load()
	return Object{p: unsafe.Add(pg.rows, uintptr(pos&(1<<s.shift-1))*pg.stride), strs: first(strs), typ: &pg.rowType}
}

// xlateMax bounds the source ids dict.from caches: a longer source table
// is looked up string by string past it.
const xlateMax = 1 << 13

// dict is a container's string dictionary: every distinct string value
// stored, at its id. It only grows.
type dict struct {
	strs []string
	ids  map[string]uint32

	// The translation of the last table rows were copied from: its start,
	// and each of its ids seen in this generation.
	src   *string
	gen   uint32
	xlate []xentry
}

type xentry struct{ gen, id uint32 }

// intern returns s's id, adding it when new.
func (d *dict) intern(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return uint64(id)
	}
	if d.ids == nil { // a first string: room for a modest dictionary
		d.ids = make(map[string]uint32, 64)
		d.strs = make([]string, 0, 64)
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return uint64(id)
}

// internBytes is intern for a string still in bytes, which it copies only
// when new.
func (d *dict) internBytes(b []byte) uint64 {
	if id, ok := d.ids[string(b)]; ok {
		return uint64(id)
	}
	return d.intern(string(b))
}

// truncate forgets every string from id n on.
func (d *dict) truncate(n int) {
	for _, s := range d.strs[n:] {
		delete(d.ids, s)
	}
	clear(d.strs[n:])
	d.strs = d.strs[:n]
	d.src = nil // the translation may hold a forgotten id
}

// from returns the id of string id of the table that starts at src, a
// row's own. Rows
// built by one RowBuilder share a table until it fills, so each of its
// strings costs one dictionary lookup per table, not one per row: the
// translation lasts while rows keep coming from the same table. A table
// only grows, so an id it once gave keeps its string.
func (d *dict) from(src *string, id uint64) uint64 {
	if src != d.src {
		d.src, d.gen = src, d.gen+1
		if d.gen == 0 { // wrapped: no entry may look current
			clear(d.xlate)
			d.gen = 1
		}
	}
	if id >= xlateMax {
		return d.intern(strAt(src, id))
	}
	if int(id) >= len(d.xlate) {
		d.xlate = slices.Grow(d.xlate, int(id)+1-len(d.xlate))[:id+1]
	}
	e := &d.xlate[id]
	if e.gen != d.gen {
		e.gen, e.id = d.gen, uint32(d.intern(strAt(src, id)))
	}
	return uint64(e.id)
}

// builderRows is how many rows a RowBuilder carves from one chunk.
const builderRows = 256

// builderStrings bounds a RowBuilder's string table.
const builderStrings = 1 << 12

// RowBuilder builds rows of one schema by copying values in, never boxing
// them: row words are carved from pointer-free chunks, and strings are
// interned in one bounded table that every row of the builder indexes.
// When the table is full a fresh one starts; rows already built keep
// theirs. A built row is not written again until the caller hands its
// memory back with Rewind: until then the caller may hold rows as long as
// it likes. A RowBuilder is not safe for concurrent use.
type RowBuilder struct {
	typ   *rowType
	nstr  int // string attributes per row
	chunk []uint64
	first []uint64 // the first chunk carved, where Rewind starts again
	row   []uint64 // the row since Begin
	d     dict     // the table: started afresh before it outgrows builderStrings
}

// NewRowBuilder returns a builder of rows of schema s.
func NewRowBuilder(s *Schema) *RowBuilder {
	b := &RowBuilder{typ: &rowType{types: schemaTypes(s)}}
	for _, t := range b.typ.types {
		if t == TypeString {
			b.nstr++
		}
	}
	b.fresh()
	return b
}

// fresh starts a new string table whose id 0 is the empty string, the
// value of a string attribute never set.
func (b *RowBuilder) fresh() {
	b.d = dict{strs: make([]string, 0, 256), ids: make(map[string]uint32, 256)}
	b.d.intern("")
}

// Rewind hands back the memory of every row built so far, to be carved
// again by the rows built after it: no row built before a Rewind may be
// read after it. A caller that copies its rows out each round — a store
// copies every row into its pages and log before an insert returns —
// rewinds once a round and, while a round fits in a chunk, builds every
// round in the same words. Rewind also forgets the caller's table
// (SetStr), which may start over in place.
func (b *RowBuilder) Rewind() { b.chunk, b.d.src = b.first, nil }

// Begin starts a row with every attribute zero: 0, or the empty string.
// Its strings all go to one table.
func (b *RowBuilder) Begin() {
	w := len(b.typ.types)
	if len(b.chunk) < w {
		b.chunk = make([]uint64, w*builderRows)
		if b.first == nil {
			b.first = b.chunk
		}
	}
	b.row, b.chunk = b.chunk[:w:w], b.chunk[w:]
	clear(b.row)
	if len(b.d.strs)+b.nstr > builderStrings {
		b.fresh()
	}
}

// SetInt sets int64 attribute i of the row.
func (b *RowBuilder) SetInt(i int, v int64) {
	b.want(i, TypeInt64)
	b.row[i] = uint64(v)
}

// SetUint sets uint64 attribute i of the row.
func (b *RowBuilder) SetUint(i int, v uint64) {
	b.want(i, TypeUint64)
	b.row[i] = v
}

// SetFloat sets float64 attribute i of the row.
func (b *RowBuilder) SetFloat(i int, v float64) {
	b.want(i, TypeFloat64)
	b.row[i] = math.Float64bits(v)
}

// SetStr sets string attribute i of the row to v, which is tab[id] when
// tab, a string table of the caller's, is not nil. The builder looks each
// of tab's ids up once, while tab starts where it did and until Rewind,
// so the rows of one decoded batch cost a lookup per string, not per row.
func (b *RowBuilder) SetStr(i int, v string, tab []string, id int) {
	b.want(i, TypeString)
	if tab == nil {
		b.row[i] = b.d.intern(v)
		return
	}
	b.row[i] = b.d.from(&tab[0], uint64(id))
}

// Row returns the row built since Begin.
func (b *RowBuilder) Row() Object {
	return wordRow(b.row, first(b.d.strs), b.typ)
}

func (b *RowBuilder) want(i int, t Type) {
	if b.typ.types[i] != t {
		panic("sos: attribute " + strconv.Itoa(i) + " is " + b.typ.types[i].String() + ", not " + t.String())
	}
}
