package streams

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Durable-stream segment codec: the byte layout of the record kinds a
// DurableStream appends to its CRC-framed WAL segment (framing — length
// prefix, CRC-32, torn-tail recovery — is sos.Frame/ReplayFrames, shared
// with the DSOS write-ahead log). Everything here is pure
// bytes-in/bytes-out so the codecs can be fuzzed directly
// (FuzzStreamCursor, FuzzRetention).
//
// Record layouts (little endian, first byte is the kind tag):
//
//	batch:  0x04 | u8 version | u64 firstSeq | u64 appendedAt (ns)
//	              | batch body (record.go: count, then the records)
//	cursor: 0x02 | u64 ackFloor | str consumer
//	drop:   0x03 | u8 reason | u64 newFirstSeq
//	msg:    0x01 | u64 seq | u8 msgtype | u64 publishedAt (ns)
//	              | u64 producerSeq | str subject | str producer | str payload
//
// where str is a u32 length prefix plus that many bytes. A batch entry
// holds one AppendBatch — messages firstSeq, firstSeq+1, ... in the batch
// record codec, the same bytes a batched TCP frame carries — under one
// CRC, so a torn write loses the whole batch or none of it. It is the
// only message entry written; the kind and version bytes are what a
// reader dispatches on (the NATS ADR-2 type hint). The msg entry — one
// message, its payload as text — is what streams wrote before the batch
// entry existed: replay still reads it, nothing writes it. A cursor
// record checkpoints one consumer's acked floor; replay keeps the highest
// floor per consumer (floors are monotone, so "highest" and "latest"
// agree — and replay enforces monotonicity rather than trusting file
// order). A drop record makes a retention trim durable: replay discards
// buffered messages below newFirstSeq without re-counting them, so drop
// accounting survives a crash exactly — also when the trim lands in the
// middle of a batch.

// Segment record kinds.
const (
	segKindMsg    = 0x01 // read-only: the pre-batch, JSON-payload entry
	segKindCursor = 0x02
	segKindDrop   = 0x03
	segKindBatch  = 0x04
)

// segBatchVersion is the batch entry layout version.
const segBatchVersion = 1

// segBatchHeader is kind + version + firstSeq + appendedAt.
const segBatchHeader = 1 + 1 + 8 + 8

// DropReason says which retention bound evicted a message.
type DropReason uint8

// Retention drop reasons.
const (
	DropByCount DropReason = iota // MaxMsgs exceeded
	DropByBytes                   // MaxBytes exceeded
	DropByAge                     // older than MaxAge
	dropReasons                   // count; keep last
)

func (r DropReason) String() string {
	switch r {
	case DropByCount:
		return "count"
	case DropByBytes:
		return "bytes"
	case DropByAge:
		return "age"
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// segMaxString bounds one string field so a corrupt length prefix cannot
// ask for gigabytes (the framing already bounds the whole record, but a
// decoder must never trust an inner length either).
const segMaxString = 16 << 20

// slot is one retained message: a view of its encoded record inside the
// batch body it was appended with (the body stays alive while any of its
// slots does), plus the two fields retention and consumer filters need
// without decoding it.
type slot struct {
	rec     []byte // one encoded record, envelope and body
	subject string
	at      time.Duration
	size    int // payload bytes: the opaque payload's, or the typed body's
}

// legacyMsg is a decoded pre-batch msg entry.
type legacyMsg struct {
	seq uint64
	at  time.Duration
	msg Message
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func takeStr(b []byte) (string, []byte, bool) {
	if len(b) < 4 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n > segMaxString || uint64(len(b)) < uint64(n) {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}

// decodeMsgEntry parses a pre-batch msg record body (including the kind
// tag).
func decodeMsgEntry(b []byte) (legacyMsg, error) {
	var e legacyMsg
	fail := fmt.Errorf("streams: short segment msg record")
	if len(b) < 1+8+1+8+8 {
		return e, fail
	}
	if b[0] != segKindMsg {
		return e, fmt.Errorf("streams: segment record kind %d, want msg", b[0])
	}
	e.seq = binary.LittleEndian.Uint64(b[1:])
	mt := b[9]
	if mt > byte(TypeJSON) {
		return e, fmt.Errorf("streams: unknown message type %d in segment", mt)
	}
	e.msg.Type = MsgType(mt)
	at := binary.LittleEndian.Uint64(b[10:])
	if at > math.MaxInt64 {
		return e, fmt.Errorf("streams: segment timestamp overflow")
	}
	e.at = time.Duration(at)
	e.msg.Seq = binary.LittleEndian.Uint64(b[18:])
	rest := b[26:]
	var ok bool
	if e.msg.Tag, rest, ok = takeStr(rest); !ok {
		return e, fail
	}
	if e.msg.Producer, rest, ok = takeStr(rest); !ok {
		return e, fail
	}
	var payload string
	if payload, rest, ok = takeStr(rest); !ok {
		return e, fail
	}
	if len(payload) > 0 {
		e.msg.Data = []byte(payload)
	}
	if len(rest) != 0 {
		return e, fmt.Errorf("streams: trailing bytes in segment msg record")
	}
	if e.seq == 0 {
		return e, fmt.Errorf("streams: segment msg record with sequence 0")
	}
	return e, nil
}

// appendBatchHeader appends a batch entry's header; the batch body
// (AppendRecords) follows it.
func appendBatchHeader(b []byte, firstSeq uint64, at time.Duration) []byte {
	b = append(b, segKindBatch, segBatchVersion)
	b = binary.LittleEndian.AppendUint64(b, firstSeq)
	return binary.LittleEndian.AppendUint64(b, uint64(at))
}

// decodeBatchHeader parses a batch entry's header and returns the batch
// body that follows it.
func decodeBatchHeader(b []byte) (firstSeq uint64, at time.Duration, body []byte, err error) {
	if len(b) < segBatchHeader {
		return 0, 0, nil, fmt.Errorf("streams: short segment batch record")
	}
	if b[0] != segKindBatch {
		return 0, 0, nil, fmt.Errorf("streams: segment record kind %d, want batch", b[0])
	}
	if b[1] != segBatchVersion {
		return 0, 0, nil, fmt.Errorf("streams: unsupported segment batch version %d", b[1])
	}
	firstSeq = binary.LittleEndian.Uint64(b[2:])
	ns := binary.LittleEndian.Uint64(b[10:])
	if firstSeq == 0 {
		return 0, 0, nil, fmt.Errorf("streams: segment batch record with sequence 0")
	}
	if ns > math.MaxInt64 {
		return 0, 0, nil, fmt.Errorf("streams: segment timestamp overflow")
	}
	return firstSeq, time.Duration(ns), b[segBatchHeader:], nil
}

// appendCursorEntry appends a consumer-cursor checkpoint body.
func appendCursorEntry(b []byte, consumer string, floor uint64) []byte {
	b = append(b, segKindCursor)
	b = binary.LittleEndian.AppendUint64(b, floor)
	return appendStr(b, consumer)
}

// decodeCursorEntry parses a cursor record body (including the kind tag).
func decodeCursorEntry(b []byte) (consumer string, floor uint64, err error) {
	fail := fmt.Errorf("streams: short segment cursor record")
	if len(b) < 1+8 {
		return "", 0, fail
	}
	if b[0] != segKindCursor {
		return "", 0, fmt.Errorf("streams: segment record kind %d, want cursor", b[0])
	}
	floor = binary.LittleEndian.Uint64(b[1:])
	rest := b[9:]
	var ok bool
	if consumer, rest, ok = takeStr(rest); !ok {
		return "", 0, fail
	}
	if len(rest) != 0 {
		return "", 0, fmt.Errorf("streams: trailing bytes in segment cursor record")
	}
	if consumer == "" {
		return "", 0, fmt.Errorf("streams: segment cursor record without a consumer name")
	}
	return consumer, floor, nil
}

// appendDropEntry appends a retention-trim marker body.
func appendDropEntry(b []byte, reason DropReason, newFirst uint64) []byte {
	b = append(b, segKindDrop, byte(reason))
	return binary.LittleEndian.AppendUint64(b, newFirst)
}

// decodeDropEntry parses a drop record body (including the kind tag).
func decodeDropEntry(b []byte) (reason DropReason, newFirst uint64, err error) {
	if len(b) != 1+1+8 {
		return 0, 0, fmt.Errorf("streams: segment drop record of %d bytes", len(b))
	}
	if b[0] != segKindDrop {
		return 0, 0, fmt.Errorf("streams: segment record kind %d, want drop", b[0])
	}
	if DropReason(b[1]) >= dropReasons {
		return 0, 0, fmt.Errorf("streams: unknown drop reason %d", b[1])
	}
	return DropReason(b[1]), binary.LittleEndian.Uint64(b[2:]), nil
}
