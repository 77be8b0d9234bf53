package ldms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

// Batched TCP frames carry many stream messages in one length-prefixed
// frame, amortizing the per-frame envelope and syscall cost. A batch
// frame is discriminated from the legacy single-message frame by its
// first byte: legacy frames start with the high byte of a 4-byte
// big-endian length bounded by maxFrame (16 MiB), which is always 0x00
// or 0x01, so batchMagic can never be confused for one. Both kinds may
// interleave on a single connection; ReadAnyFrameSlab dispatches per
// frame.
//
// Layout:
//
//	byte 0      batchMagic (0xBB)
//	byte 1      batchVersion: the batch body version (2 is written; a
//	            version-1 frame is still read)
//	bytes 2..5  big-endian payload length (bounded by maxFrame)
//	payload     the batch body of the streams batch record codec
//	            (streams.AppendRecords): uvarint record count, then per
//	            record an envelope and a typed or opaque body, their
//	            strings in one batch-local table and every record's
//	            numbers after the first written against the first's
//
// The payload is the same bytes a durable stream keeps at rest, so a
// frame received, staged in a stream and forwarded is never re-rendered:
// a receiver whose bus needs no decoded message appends the payload as
// the entry body (streams.Bus.PublishBody), and a stream uplink writes a
// round's whole stored batch back out as that body (writeBatchBody). A
// round falls back to decoding and WriteBatchFrame when it cannot: a
// version-1 payload, a frame mixing tags, a tag a handler subscribes to,
// messages stored alone, and a batch cut by retention or by a round's
// start or size. Typed records stay in the
// compact binary form either way — no JSON is produced on any hop;
// records that only have bytes (raw publishers, lossy-encoder
// placeholders) travel opaque.
const (
	batchMagic   = 0xBB
	batchVersion = streams.BodyV2
)

// framePool recycles batch frame scratch buffers; steady-state batching
// does not allocate a frame buffer per flush.
var framePool event.BufferPool

// slabPool recycles decode slabs for the batched receive path; every
// frame decoded through a BatchDecoder borrows one slab and the caller
// releases it when the frame's messages have been handed off.
var slabPool event.SlabPool

// FramePoolCounters exposes the scratch buffer pool's Get/Put counts for
// leak assertions in tests.
func FramePoolCounters() (gets, puts uint64) { return framePool.Counters() }

// WriteBatchFrame writes msgs as one batch frame. An empty batch is
// rejected, mirroring WriteFrame's zero-length rule.
func WriteBatchFrame(w io.Writer, msgs []streams.Message) error {
	if len(msgs) == 0 {
		return errors.New("ldms: empty batch frame")
	}
	buf := append(framePool.Get(), batchMagic, batchVersion, 0, 0, 0, 0)
	return writeFrameBuf(w, streams.AppendRecords(buf, msgs))
}

// writeBatchBody writes a stored version-2 batch body as one batch frame:
// byte for byte the frame WriteBatchFrame writes for its messages.
func writeBatchBody(w io.Writer, body []byte) error {
	buf := append(framePool.Get(), batchMagic, batchVersion, 0, 0, 0, 0)
	return writeFrameBuf(w, append(buf, body...))
}

// writeFrameBuf fills in the payload length of buf, a batch frame built
// in a framePool buffer, writes it and returns the buffer to the pool.
func writeFrameBuf(w io.Writer, buf []byte) error {
	n := len(buf) - 6
	var err error
	if n > maxFrame {
		err = fmt.Errorf("ldms: batch frame too large (%d bytes)", n)
	} else {
		binary.BigEndian.PutUint32(buf[2:6], uint32(n))
		_, err = w.Write(buf)
	}
	framePool.Put(buf)
	return err
}

// BatchDecoder is the zero-alloc receive side of the batched wire path:
// one per connection (it is not safe for concurrent use). It owns a
// string interner — a batch's strings are materialized once per batch,
// and after the first few frames not even that allocates — a reusable
// batch table and a reusable payload scratch buffer; decoded structs and
// slices live in a pooled Slab whose reference the caller holds and must
// Release once the frame's messages are handed off. Every consumer is
// synchronous, so nothing more is needed.
type BatchDecoder struct {
	in      *event.Interner
	table   streams.BatchContext
	payload []byte
}

// NewBatchDecoder returns a decoder with a fresh interner.
func NewBatchDecoder() *BatchDecoder {
	return &BatchDecoder{in: event.NewInterner()}
}

// decodeBatch parses a batch payload of the given body version into
// slab-owned stream messages: the out-slice, record wrappers, message
// structs and segment arrays all come from slab; strings are interned.
// Opaque records still copy their payload bytes to the heap — raw bytes
// have no typed lifecycle and downstream (durable streams) retains them.
// The messages are valid only while slab is retained.
func (d *BatchDecoder) decodeBatch(version byte, payload []byte, slab *event.Slab) ([]streams.Message, error) {
	if err := d.table.Reset(version, d.in); err != nil {
		return nil, err
	}
	r := streams.NewRecordWalker(payload, &d.table)
	count, err := r.Count()
	if err != nil {
		return nil, err
	}
	out := slab.Out(count)
	for i := 0; i < count; i++ {
		e, err := r.Next()
		if err != nil {
			return nil, err
		}
		m := streams.Message{Tag: e.Tag, Type: e.Type, Producer: e.Producer, Seq: e.Seq}
		if e.Kind == streams.RecTyped {
			msg, n, err := event.DecodeTypedSlab(r.Rest(), &d.table, slab)
			if err != nil {
				return nil, err
			}
			r.Skip(n)
			m.Record = slab.Wrap(msg, nil)
		} else {
			m.Data = append([]byte(nil), e.Payload...)
		}
		out = append(out, m)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBatchFrameSlab reads one batch frame into a pooled slab. On
// success the caller holds the slab's reference and must Release it
// after the messages are handed off; on error no slab is returned. The
// frame payload is read into the decoder's reusable scratch buffer —
// nothing decoded references it afterward (strings are interned copies,
// opaque payloads are copied out).
func (d *BatchDecoder) ReadBatchFrameSlab(r io.Reader) ([]streams.Message, *event.Slab, error) {
	version, payload, err := d.readBatchPayload(r)
	if err != nil {
		return nil, nil, err
	}
	return d.decodeSlab(version, payload)
}

// readBatchPayload reads one batch frame into the decoder's reusable
// scratch buffer and returns its body version and payload, valid until
// the next read.
func (d *BatchDecoder) readBatchPayload(r io.Reader) (byte, []byte, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != batchMagic {
		return 0, nil, fmt.Errorf("ldms: not a batch frame (0x%02x)", hdr[0])
	}
	if hdr[1] != streams.BodyV1 && hdr[1] != batchVersion {
		return 0, nil, fmt.Errorf("ldms: unsupported batch version %d", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n == 0 {
		return 0, nil, errors.New("ldms: zero-length batch frame")
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("ldms: oversized batch frame (%d bytes)", n)
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	}
	payload := d.payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[1], payload, nil
}

// decodeSlab decodes a batch payload into a pooled slab, as
// ReadBatchFrameSlab returns it.
func (d *BatchDecoder) decodeSlab(version byte, payload []byte) ([]streams.Message, *event.Slab, error) {
	slab := slabPool.Get()
	msgs, err := d.decodeBatch(version, payload, slab)
	if err != nil {
		slab.Release()
		return nil, nil, err
	}
	return msgs, slab, nil
}

// ReadAnyFrameSlab reads the next frame, legacy or batch, into a pooled
// slab (a legacy frame's single message is placed in a slab out-slice so
// the caller's release discipline is uniform). The caller must Release
// the slab after handing the messages off.
func (d *BatchDecoder) ReadAnyFrameSlab(br *bufio.Reader) ([]streams.Message, *event.Slab, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, nil, err
	}
	if first[0] == batchMagic {
		return d.ReadBatchFrameSlab(br)
	}
	m, err := ReadFrame(br)
	if err != nil {
		return nil, nil, err
	}
	slab := slabPool.Get()
	msgs := append(slab.Out(1), m)
	return msgs, slab, nil
}

// PublishBatch sends msgs as a single batch frame. Like the rest of
// TCPClient it has no caller but the benchmark.
func (c *TCPClient) PublishBatch(msgs []streams.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("ldms: client closed")
	}
	if err := WriteBatchFrame(c.bw, msgs); err != nil {
		return err
	}
	return c.bw.Flush()
}
