package sos

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Snapshot persistence: schemas and object slabs are written; indices are
// rebuilt from their specs on restore (SOS stores its trees on disk, but
// rebuilding keeps the format simple and is fast at monitoring scales).

const snapMagic = "SOS-GO-SNAP1"

// snapMagic2 is the snapshot format carrying per-object origin ids. It is
// only written when the container actually has stamped origins, so
// unreplicated snapshots stay byte-identical to the original format.
const snapMagic2 = "SOS-GO-SNAP2"

// Frozen is a container's contents at one instant, for writing a snapshot
// while the container keeps taking inserts. Slabs, the dictionary and
// origin lists are append-only — an insert writes past their length or
// replaces the list, never an element in place — so copies of their
// headers pin exactly the objects present when Freeze ran.
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
		f.slabs = append(f.slabs, *c.slabs[name])
		f.origins = append(f.origins, c.origins[name])
	}
	for _, name := range c.Indices() {
		f.indices = append(f.indices, c.indices[name].spec)
	}
	return f
}

// hasOrigins reports whether any object carries a non-zero origin.
func (f *Frozen) hasOrigins() bool {
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
func (c *Container) Snapshot(w io.Writer) error { return c.Freeze().Snapshot(w) }

// Snapshot writes the frozen contents to w in Container.Snapshot's format.
func (f *Frozen) Snapshot(w io.Writer) error {
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
		slab, origins := &f.slabs[i], f.origins[i]
		e.u64(uint64(slab.n))
		for pos := 0; pos < slab.n; pos++ {
			for j, w := range slab.row(pos) {
				e.word(sch.Attrs[j].Type, w, f.strs)
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

// Restore reads a container snapshot written by Snapshot (either format).
func Restore(r io.Reader) (*Container, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	withOrigins := string(magic) == snapMagic2
	if string(magic) != snapMagic && !withOrigins {
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
		nObjs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if nObjs > maxRows {
			return nil, errFull(name)
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
		for j := uint64(0); j < nObjs; j++ {
			w := slab.grow()
			for k, t := range slab.typ.types {
				w[k] = d.word(t, &c.dict)
			}
			if withOrigins {
				origins = append(origins, d.u64())
			}
			if d.err != nil {
				return nil, d.err
			}
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

// word writes a row word of type t; a string word indexes strs.
func (e *snapEnc) word(t Type, w uint64, strs []string) {
	switch t {
	case TypeInt64, TypeUint64, TypeFloat64:
		e.u64(w)
	case TypeString:
		e.str(strs[w])
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
