package streams

import "encoding/binary"

// appendRecordsV1 is the version-1 batch body writer, kept as the
// reference the version-2 codec is held to and as the source of frozen
// version-1 entries: every string spelled out, every number as it stands.
func appendRecordsV1(b []byte, msgs []Message) []byte {
	str := func(b []byte, s string) []byte {
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		kindAt := len(b)
		b = append(b, RecTyped)
		b = str(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Type))
		b = str(b, m.Producer)
		b = binary.AppendUvarint(b, m.Seq)
		if m.Record != nil && typedCodec != nil {
			var c BatchContext
			_ = c.Reset(BodyV1, nil)
			if tb, ok := typedCodec.AppendTyped(b, m.Record, &c); ok {
				b = tb
				continue
			}
		}
		b[kindAt] = RecOpaque
		b = str(b, string(m.Payload()))
	}
	return b
}

// appendBatchEntryV1 is a version-1 segment batch entry of msgs at
// firstSeq.
func appendBatchEntryV1(b []byte, firstSeq uint64, at int64, msgs []Message) []byte {
	b = append(b, segKindBatch, BodyV1)
	b = binary.LittleEndian.AppendUint64(b, firstSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	return appendRecordsV1(b, msgs)
}

// AppendRecordsV1 lends the version-1 writer to this package's external
// tests, which need the typed plane.
var AppendRecordsV1 = appendRecordsV1
