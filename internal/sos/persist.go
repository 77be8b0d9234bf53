package sos

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Snapshot persistence. A snapshot is the container as it is held, so
// writing one encodes nothing per row; indices are rebuilt from their
// specs on restore (SOS stores its trees on disk, but rebuilding keeps the
// format simple). Only the third format, snapMagic3, is written. In one
// gzip stream: the container's name and next object id, the dictionary,
// then per schema its attributes, row count, rows a page, origin list
// (empty unless an origin was ever stamped) and pages: each one's stride,
// each attribute's base, width and offset, and its rows packed (the open
// page's packed as a seal would pack them). Then the index specs. The
// first two formats, which inline every value of every row, stay
// readable.

const snapMagic = "SOS-GO-SNAP1"

// snapMagic2 is the second format: the first with per-object origin ids,
// written when the container had stamped origins.
const snapMagic2 = "SOS-GO-SNAP2"

// snapMagic3 is the format Snapshot writes.
const snapMagic3 = "SOS-GO-SNAP3"

// Frozen is a container's contents at one instant, for writing a snapshot
// while the container keeps taking inserts. Slabs, the dictionary and
// origin lists are append-only — an insert writes past their length or
// replaces the list, never an element in place, and a seal swaps a page
// for the same rows packed — so copies of their headers pin exactly the
// objects present when Freeze ran.
type Frozen struct {
	name    string
	nextOID uint64
	schemas []*Schema // sorted by name
	slabs   []slab
	strs    []string
	origins [][]uint64
	indices []IndexSpec // sorted by name
}

// Freeze captures the container's contents for a later Snapshot. It costs
// O(schemas + indices), not O(objects): a caller holding the lock that
// serialises inserts can take it and write the snapshot after releasing
// that lock.
func (c *Container) Freeze() *Frozen {
	f := &Frozen{name: c.Name, nextOID: c.nextOID, strs: c.dict.strs}
	for _, name := range c.Schemas() {
		f.schemas = append(f.schemas, c.schemas[name])
		f.slabs = append(f.slabs, c.slabs[name].view())
		f.origins = append(f.origins, c.origins[name])
	}
	for _, name := range c.Indices() {
		f.indices = append(f.indices, c.indices[name].spec)
	}
	return f
}

// Snapshot writes the container to w (gzip-compressed binary).
func (c *Container) Snapshot(w io.Writer) error { return c.Freeze().Snapshot(w) }

// Snapshot writes the frozen contents to w in Container.Snapshot's format.
func (f *Frozen) Snapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic3); err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(w, gzip.BestSpeed) // the level is valid
	bw := bufio.NewWriter(zw)
	e := &snapEnc{w: bw}
	e.str(f.name)
	e.u64(f.nextOID)
	e.u64(uint64(len(f.strs)))
	for _, s := range f.strs {
		e.str(s)
	}
	e.u64(uint64(len(f.schemas)))
	var words []uint64
	for i, sch := range f.schemas {
		e.str(sch.Name)
		e.u64(uint64(len(sch.Attrs)))
		for _, a := range sch.Attrs {
			e.str(a.Name)
			e.u64(uint64(a.Type))
		}
		s, origins := &f.slabs[i], f.origins[i]
		e.u64(uint64(s.n))
		e.u64(1 << s.shift)
		e.u64(uint64(len(origins)))
		for _, o := range origins {
			e.u64(o)
		}
		for p := 0; p<<s.shift < s.n; p++ {
			pg, rows := s.pages[p].Load(), min(s.n-p<<s.shift, 1<<s.shift)
			if pg.cols == nil || rows < 1<<s.shift {
				// The open page, or the first rows of a page sealed since
				// Freeze: packed as a seal packs them.
				words = slices.Grow(words[:0], rows*s.width)[:rows*s.width]
				for r := 0; r < rows; r++ {
					s.object(p<<s.shift+r, nil).copyWords(words[r*s.width : (r+1)*s.width])
				}
				pg = s.pack(words, rows)
			}
			e.u64(uint64(pg.stride))
			for _, c := range pg.cols {
				e.u64(c.base)
				e.u64(uint64(bits.OnesCount64(c.mask) / 8))
				e.u64(uint64(c.off))
			}
			e.write(unsafe.Slice((*byte)(pg.rows), int(pg.stride)*rows))
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

// Restore reads a container snapshot written by Snapshot, in any of the
// three formats.
func Restore(r io.Reader) (*Container, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	v3, withOrigins := string(magic) == snapMagic3, string(magic) == snapMagic2
	if string(magic) != snapMagic && !withOrigins && !v3 {
		return nil, errors.New("sos: not a container snapshot")
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	d := &snapDec{r: bufio.NewReader(zr)}
	c := NewContainer(d.str())
	c.nextOID = d.u64()
	if v3 { // the dictionary, ids as written
		for n := d.u64(); n > 0 && d.err == nil; n-- {
			c.dict.intern(d.str())
		}
	}
	nSchemas := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if nSchemas > 1<<20 {
		return nil, fmt.Errorf("sos: implausible schema count %d", nSchemas)
	}
	for i := uint64(0); i < nSchemas; i++ {
		name := d.str()
		nAttrs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if nAttrs > 1<<16 {
			return nil, fmt.Errorf("sos: implausible attr count %d", nAttrs)
		}
		attrs := make([]AttrSpec, nAttrs)
		for j := range attrs {
			attrs[j].Name = d.str()
			attrs[j].Type = Type(d.u64())
		}
		sch, err := NewSchema(name, attrs)
		if err != nil {
			return nil, err
		}
		if err := c.AddSchema(sch); err != nil {
			return nil, err
		}
		nObjs, perPage, nOrigins := d.u64(), uint64(0), uint64(0)
		if v3 {
			perPage, nOrigins = d.u64(), d.u64()
			withOrigins = nOrigins > 0
		}
		if d.err != nil {
			return nil, d.err
		}
		if nObjs > maxRows || v3 && nOrigins != 0 && nOrigins != nObjs {
			return nil, fmt.Errorf("sos: schema %q: %d rows, %d origins; at most %d rows, each with an origin or none", name, nObjs, nOrigins, uint64(maxRows))
		}
		if nObjs > 0 && len(attrs) == 0 && !withOrigins {
			// Such objects occupy no bytes, so nothing would ever stop the
			// loop below short of the declared count.
			return nil, fmt.Errorf("sos: %d objects declared for a schema without attributes", nObjs)
		}
		// The count is a hint, not a promise: the slab grows a page at a
		// time and preallocates no more than a modest origin list, so a
		// hostile header cannot ask for gigabytes before the first object
		// fails to read.
		slab := c.slabs[name]
		var origins []uint64
		if withOrigins {
			origins = make([]uint64, 0, min(nObjs, 1<<16))
		}
		for j := uint64(0); v3 && j < nOrigins && d.err == nil; j++ {
			origins = append(origins, d.u64())
		}
		if v3 && d.err == nil {
			if err := d.pages(slab, perPage, int(nObjs), len(c.dict.strs)); err != nil {
				return nil, fmt.Errorf("sos: schema %q: %w", name, err)
			}
		}
		for j := uint64(0); !v3 && j < nObjs && d.err == nil; j++ {
			w := slab.grow()
			for k, t := range slab.types {
				w[k] = d.word(t, &c.dict)
			}
			if withOrigins {
				origins = append(origins, d.u64())
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		if withOrigins {
			c.origins[name] = origins
		}
	}
	nIdx := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if nIdx > 1<<16 {
		return nil, fmt.Errorf("sos: implausible index count %d", nIdx)
	}
	for i := uint64(0); i < nIdx; i++ {
		spec := IndexSpec{Name: d.str(), Schema: d.str()}
		nAttrs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if nAttrs > 1<<16 {
			return nil, fmt.Errorf("sos: implausible index attr count %d", nAttrs)
		}
		for j := uint64(0); j < nAttrs; j++ {
			spec.Attrs = append(spec.Attrs, d.str())
		}
		if d.err != nil {
			return nil, d.err
		}
		if _, err := c.AddIndex(spec); err != nil {
			return nil, err
		}
	}
	return c, d.err
}

// pages reads n rows of slab s in v3 pages of perPage rows each, whose
// string words index a dictionary of nstrs strings. A full page is
// adopted as it stands; the rows of a last page that is not full become
// the slab's open page again. A file whose pages hold fewer rows than
// this build's keeps its page size; one whose pages hold more is refused.
func (d *snapDec) pages(s *slab, perPage uint64, n, nstrs int) error {
	if perPage == 0 || perPage&(perPage-1) != 0 || perPage > 1<<s.shift {
		return fmt.Errorf("pages of %d rows; this build's pages hold %d, a power of two", perPage, 1<<s.shift)
	}
	s.shift = uint(bits.TrailingZeros64(perPage))
	for p := 0; p<<s.shift < n; p++ {
		rows := min(n-p<<s.shift, 1<<s.shift)
		stride := d.u64()
		pg, sum := &page{rowType: rowType{types: s.types, cols: make([]col, s.width), stride: uintptr(stride)}}, uint64(0)
		for j, t := range s.types {
			base, width, off := d.u64(), d.u64(), d.u64()
			if d.err == nil && (width > 8 || off > stride || width > stride-off || uint(t) > uint(TypeString)) {
				return fmt.Errorf("page %d: attribute %d (%v) of %d bytes at offset %d in a %d-byte row", p, j, t, width, off, stride)
			}
			pg.cols[j], sum = col{base: base, mask: 1<<(8*width) - 1, off: uintptr(off)}, sum+width
		}
		if d.err != nil {
			return d.err
		}
		if sum != stride {
			return fmt.Errorf("page %d: a %d-byte row of attributes %d bytes wide", p, stride, sum)
		}
		data := make([]byte, int(stride)<<s.shift+8) // as seal allocates it
		if _, err := io.ReadFull(d.r, data[:int(stride)*rows]); err != nil {
			return err
		}
		pg.rows = unsafe.Pointer(&data[0])
		for _, j := range s.strCols {
			c, hi := &pg.cols[j], uint64(0)
			for r := 0; r < rows; r++ {
				hi = max(hi, binary.LittleEndian.Uint64(data[r*int(stride)+int(c.off):])&c.mask)
			}
			if c.base >= uint64(nstrs) || hi >= uint64(nstrs)-c.base {
				return fmt.Errorf("page %d: attribute %d holds a string id past the dictionary's %d", p, j, nstrs)
			}
		}
		if rows < 1<<s.shift {
			for r := 0; r < rows; r++ {
				Object{p: unsafe.Add(pg.rows, uintptr(r)*pg.stride), typ: &pg.rowType}.copyWords(s.grow())
			}
			break
		}
		s.pages = append(s.pages, atomic.Pointer[page]{})
		s.pages[p].Store(pg)
		s.n += rows
	}
	return nil
}

type snapEnc struct {
	w   *bufio.Writer
	err error
}

func (e *snapEnc) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *snapEnc) str(s string) {
	e.u64(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// write writes b as it stands.
func (e *snapEnc) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

type snapDec struct {
	r   *bufio.Reader
	buf []byte // the last string bytes read
	err error
}

func (d *snapDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (d *snapDec) str() string { return string(d.bytes()) }

// bytes reads a string into the decoder's buffer, which the next read
// reuses.
func (d *snapDec) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > 1<<24 {
		d.err = fmt.Errorf("sos: implausible string length %d", n)
		return nil
	}
	d.buf = slices.Grow(d.buf[:0], int(n))[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		d.err = err
		return nil
	}
	return d.buf
}

// word reads a row word of type t, interning a string in dict.
func (d *snapDec) word(t Type, dict *dict) uint64 {
	switch t {
	case TypeInt64, TypeUint64, TypeFloat64:
		return d.u64()
	case TypeString:
		if b := d.bytes(); d.err == nil {
			return dict.internBytes(b)
		}
		return 0
	}
	if d.err == nil {
		d.err = fmt.Errorf("sos: unknown type %d", t)
	}
	return 0
}
