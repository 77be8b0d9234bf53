// dlc-fuzzcorpus regenerates the checked-in fuzz seed corpora under each
// package's testdata/fuzz/<Target>/ directory, in the `go test fuzz v1`
// file format the Go fuzzer loads automatically. The seeds complement the
// in-code f.Add cases with serialized hostile inputs: truncated envelopes,
// flipped checksum bytes, implausible declared counts, hostile varints.
//
// Usage:
//
//	dlc-fuzzcorpus [-root .]
//
// The tool is deterministic: running it twice produces identical files, so
// the corpora can be diffed like any other golden output.
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"darshanldms/internal/darshan"
	"darshanldms/internal/darshanlog"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/scenario"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func main() {
	root := flag.String("root", ".", "repository root (corpora land under <root>/internal/...)")
	flag.Parse()

	n := 0
	write := func(pkg, target, name string, data []byte) {
		dir := filepath.Join(*root, pkg, "testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		n++
	}

	// --- darshanlog.FuzzRead: binary log parser ---
	log := "internal/darshanlog"
	valid := validLog()
	write(log, "FuzzRead", "valid-log", valid)
	write(log, "FuzzRead", "truncated-gzip-body", valid[:len(valid)*3/4])
	crc := corrupt(valid, len(valid)-6) // inside the gzip CRC32/ISIZE trailer
	write(log, "FuzzRead", "bad-gzip-crc", crc)
	// A well-formed gzip envelope whose payload is all 0xFF: the varint
	// decoder sees maximal continuation bytes and implausible counts.
	write(log, "FuzzRead", "hostile-varint-payload",
		gzipEnvelope(darshanlog.Magic, bytes.Repeat([]byte{0xFF}, 64)))
	write(log, "FuzzRead", "empty-gzip-payload", gzipEnvelope(darshanlog.Magic, nil))
	// A header with no records and one DXT trace that declares 2^30
	// segments, then ends: the segment loop must stop at the first failed
	// read, not append 2^30 zero segments.
	var trace []byte
	for _, v := range []uint64{259903, 1, 0, 0, 1, 4, 0, 0, 1, 0, 0, 7, 1 << 30} {
		trace = binary.LittleEndian.AppendUint64(trace, v)
	}
	write(log, "FuzzRead", "hostile-segment-count", gzipEnvelope(darshanlog.Magic, trace))

	// --- jsonmsg.FuzzParse: store-side JSON parser ---
	jm := "internal/jsonmsg"
	m := sampleJSONMsg()
	enc := jsonmsg.FastEncoder{}.Encode(&m)
	write(jm, "FuzzParse", "valid-message", enc)
	write(jm, "FuzzParse", "truncated-message", enc[:len(enc)/2])
	write(jm, "FuzzParse", "deep-nesting",
		append(append(bytes.Repeat([]byte(`{"seg":[`), 64), '1'), bytes.Repeat([]byte(`]}`), 64)...))
	write(jm, "FuzzParse", "huge-number", []byte(`{"uid":1`+string(bytes.Repeat([]byte("0"), 400))+`}`))
	write(jm, "FuzzParse", "duplicate-keys", []byte(`{"module":"POSIX","module":"MPIIO","seg":[{"off":1,"off":2}]}`))
	write(jm, "FuzzParse", "nul-and-invalid-utf8", []byte("{\"file\":\"\x00\xff\xfe\",\"module\":\"POSIX\"}"))

	// --- event.FuzzSlabCodec: compact binary record codec (the target
	// differentially decodes each seed through the heap and slab paths) ---
	ev := "internal/event"
	rec := event.AppendMessage(nil, &m)
	write(ev, "FuzzSlabCodec", "valid-record", rec)
	multi := m
	multi.Seg = append(append([]jsonmsg.Segment{}, m.Seg...), m.Seg[0], m.Seg[0])
	write(ev, "FuzzSlabCodec", "multi-segment-record", event.AppendMessage(nil, &multi))
	write(ev, "FuzzSlabCodec", "empty-record", event.AppendMessage(nil, &jsonmsg.Message{}))
	write(ev, "FuzzSlabCodec", "truncated-record", rec[:len(rec)/2])
	write(ev, "FuzzSlabCodec", "corrupt-mid-record", corrupt(rec, len(rec)/2))
	// Maximal varint continuation bytes: hostile string lengths and
	// segment counts for the bounded-allocation checks.
	write(ev, "FuzzSlabCodec", "hostile-varints", bytes.Repeat([]byte{0xFF}, 48))
	// Float bits travel verbatim, NaN included: a record the target must
	// not compare with DeepEqual.
	nan := m
	nan.Seg = []jsonmsg.Segment{m.Seg[0]}
	nan.Seg[0].Dur = math.NaN()
	write(ev, "FuzzSlabCodec", "nan-duration", event.AppendMessage(nil, &nan))

	// --- ldms.FuzzReadFrame: legacy single-message framing ---
	lp := "internal/ldms"
	var frame bytes.Buffer
	if err := ldms.WriteFrame(&frame, streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 7,
	}); err != nil {
		fatal(err)
	}
	write(lp, "FuzzReadFrame", "valid-json-frame", frame.Bytes())
	write(lp, "FuzzReadFrame", "truncated-frame", frame.Bytes()[:len(frame.Bytes())/2])
	write(lp, "FuzzReadFrame", "oversized-declared-length",
		append([]byte{0xFF, 0xFF, 0xFF, 0x00}, frame.Bytes()[4:]...))
	var sframe bytes.Buffer
	if err := ldms.WriteFrame(&sframe, streams.Message{Tag: "t", Type: streams.TypeString, Data: []byte("x")}); err != nil {
		fatal(err)
	}
	write(lp, "FuzzReadFrame", "string-frame", sframe.Bytes())

	// --- ldms.FuzzReadBatchFrame: typed batch framing ---
	var batch bytes.Buffer
	if err := ldms.WriteBatchFrame(&batch, []streams.Message{
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 1},
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 2},
		{Tag: "s", Type: streams.TypeString, Data: []byte("meta")},
	}); err != nil {
		fatal(err)
	}
	b := batch.Bytes()
	write(lp, "FuzzReadBatchFrame", "valid-batch", b)
	write(lp, "FuzzReadBatchFrame", "truncated-batch", b[:len(b)/2])
	// Keep the magic+version+length header, replace the body with maximal
	// varint continuation bytes: a hostile declared record count.
	write(lp, "FuzzReadBatchFrame", "hostile-count-varint",
		append(append([]byte{}, b[:6]...), bytes.Repeat([]byte{0xFF}, 16)...))
	write(lp, "FuzzReadBatchFrame", "corrupt-body", corrupt(b, len(b)/2))
	// ReadAnyFrameSlab also accepts the legacy framing; seed that path too.
	write(lp, "FuzzReadBatchFrame", "legacy-frame", frame.Bytes())

	// --- sos.FuzzRestore: container snapshot parser ---
	sp := "internal/sos"
	snap := validSnapshot()
	write(sp, "FuzzRestore", "valid-snapshot", snap)
	write(sp, "FuzzRestore", "truncated-snapshot", snap[:len(snap)/2])
	write(sp, "FuzzRestore", "corrupt-header", corrupt(snap, 16))
	write(sp, "FuzzRestore", "corrupt-tail", corrupt(snap, len(snap)-4))
	write(sp, "FuzzRestore", "hostile-count-region",
		append(append([]byte{}, snap[:16]...), bytes.Repeat([]byte{0xFF}, 32)...))

	// --- sos.FuzzKeyOrder: byte keys vs the test's CompareKeys ---
	// Bytes: type count-1, types (b%3: 0 int64, 1 uint64, 2 float64), the
	// two key lengths, then per position a share byte (even = one value for
	// both keys) and value selectors: even picks an edge value (index
	// sel/2), odd reads raw bits (the target's doc).
	write(sp, "FuzzKeyOrder", "negative-nan-after-inf", []byte{0, 2, 1, 1, 1, 26, 20})
	write(sp, "FuzzKeyOrder", "negative-zero-equals-zero", []byte{0, 2, 1, 1, 1, 8, 10})
	write(sp, "FuzzKeyOrder", "subnormals", []byte{0, 2, 1, 1, 1, 12, 14})
	write(sp, "FuzzKeyOrder", "most-negative-float-first", []byte{0, 2, 1, 1, 1, 2, 4})
	write(sp, "FuzzKeyOrder", "minus-one-before-one", []byte{0, 0, 1, 1, 1, 4, 8})
	// The one-value bound {MinInt64} against the four-value key
	// {MinInt64, MaxUint64, +Inf, MinInt64}.
	write(sp, "FuzzKeyOrder", "extremes-bound-prefix", []byte{3, 0, 1, 2, 3, 1, 4, 0, 0, 0, 6, 1, 22, 20})

	// --- sos.FuzzReplayWAL: floor-bounded shard log replay ---
	// The first two bytes of each seed are the floor (little endian); the
	// rest is log bytes. Rows are (int64, string) pairs. The v1 seeds are
	// frozen bytes (v1Record); the v2 ones come from the live writer.
	floorLog := func(floor uint16, log []byte) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, floor), log...)
	}
	write(sp, "FuzzReplayWAL", "legacy-one-row", floorLog(0, v1Log(v1Record(false, 0, []int{1}, nil))))
	write(sp, "FuzzReplayWAL", "batch-record", floorLog(5, v1Log(v1Record(true, 5, []int{1, 2, 3}, []uint64{11, 12, 13}))))
	// A CRC-clean batch whose row count is a lie: nothing may be sized from it.
	hostileBody := binary.LittleEndian.AppendUint32(nil, uint32(len("ev"))|1<<31)
	hostileBody = append(hostileBody, "ev"...)
	hostileBody = binary.LittleEndian.AppendUint64(hostileBody, 1)
	hostileBody = binary.LittleEndian.AppendUint32(hostileBody, math.MaxUint32)
	hostileBody = append(hostileBody, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
	write(sp, "FuzzReplayWAL", "hostile-row-count", floorLog(9, v1Log(hostileBody)))
	twoBatches := v1Log(v1Record(true, 3, []int{1, 2}, nil), v1Record(true, 7, []int{3, 4}, nil))
	write(sp, "FuzzReplayWAL", "torn-batch-tail", floorLog(9, twoBatches[:len(twoBatches)-10]))
	write(sp, "FuzzReplayWAL", "token-above-floor", floorLog(5, twoBatches))
	write(sp, "FuzzReplayWAL", "legacy-then-batch", floorLog(2, v1Log(
		v1Record(false, 0, []int{1}, nil), v1Record(false, 0, []int{2}, nil),
		v1Record(true, 2, []int{3, 4}, nil), v1Record(true, 6, []int{5}, nil))))
	row := func(i int) sos.Object { return sos.NewObject(int64(i), fmt.Sprintf("r%d", i)) }
	rows := func(is ...int) []sos.Object {
		var out []sos.Object
		for _, i := range is {
			out = append(out, row(i))
		}
		return out
	}
	// The second record reuses two of the first's strings and adds one.
	spanning := walLog(func(w *sos.WAL) error {
		if err := w.AppendBatch("ev", rows(1, 2, 1), []uint64{1, 2, 3}, 2); err != nil {
			return err
		}
		return w.AppendBatch("ev", rows(2, 3, 1), nil, 4)
	})
	write(sp, "FuzzReplayWAL", "v2-delta-spanning-records", floorLog(4, spanning))
	// A second writer that never replayed the log restarts the dictionary
	// at 0: its record's dictBase is not the log's, and replay stops there.
	write(sp, "FuzzReplayWAL", "v2-dict-base-mismatch", floorLog(9, walLog(func(w *sos.WAL) error {
		if err := w.AppendBatch("ev", rows(1, 2), nil, 1); err != nil {
			return err
		}
		return sos.NewWAL(w.Store()).AppendBatch("ev", rows(3), nil, 2)
	})))
	// A CRC-clean v2 record whose delta declares 2^40 strings.
	hostileDelta := binary.LittleEndian.AppendUint32(nil, uint32(len("ev"))|1<<31|1<<30)
	hostileDelta = append(hostileDelta, "ev"...)
	hostileDelta = append(hostileDelta, 2, 1, 1, 2, 0, 3)               // version, token, rows, types
	hostileDelta = binary.AppendUvarint(append(hostileDelta, 1), 1<<40) // dictBase 1: "r1"
	hostileDelta = append(hostileDelta, 1, 'x', 2, 0)
	write(sp, "FuzzReplayWAL", "v2-hostile-delta-count", floorLog(9, walLog(func(w *sos.WAL) error {
		if err := w.AppendBatch("ev", rows(1), nil, 1); err != nil {
			return err
		}
		return sos.AppendFrame(w.Store(), hostileDelta)
	})))
	// The second record torn inside its delta's new string.
	write(sp, "FuzzReplayWAL", "v2-torn-delta", floorLog(9, spanning[:bytes.LastIndex(spanning, []byte("r3"))+1]))

	// --- sos.FuzzObjectsMatchBoxed: typed rows vs the []any container ---
	// The first byte holds flags (1 origins, 2 RowBuilder, 4 alternate
	// builders); then ops. A row op is 0 and five selectors for the
	// attributes (i int64, u uint64, f float64, s string, t string): an
	// even selector 2k picks edge value k, an odd one a plain value.
	boxedRow := func(sels ...byte) []byte { return append([]byte{0}, sels...) }
	boxed := func(flags byte, ops ...[]byte) []byte {
		out := []byte{flags}
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	// f: NaN (0), -0 (2), +0 (4), a NaN with the sign bit set (16).
	write(sp, "FuzzObjectsMatchBoxed", "nan-and-negative-zero-timestamps", boxed(0,
		boxedRow(1, 1, 0, 1, 1), boxedRow(3, 1, 2, 1, 1), boxedRow(5, 1, 4, 1, 1),
		boxedRow(7, 1, 16, 1, 1), boxedRow(9, 1, 0, 3, 1), boxedRow(11, 1, 2, 3, 1)))
	// i: MinInt64 (6), MaxInt64 (8); u: MaxUint64 (4), 1<<63 (6).
	write(sp, "FuzzObjectsMatchBoxed", "int-and-uint-extremes", boxed(2,
		boxedRow(6, 4, 1, 1, 1), boxedRow(8, 6, 1, 1, 1), boxedRow(6, 0, 1, 1, 1),
		boxedRow(8, 4, 3, 1, 1), boxedRow(0, 2, 5, 1, 1)))
	// s: "" (0), "a" (2), "a\x00" (4), "\x00" (6), "a\x00b" (8).
	write(sp, "FuzzObjectsMatchBoxed", "empty-and-nul-strings", boxed(4,
		boxedRow(1, 1, 1, 0, 0), boxedRow(1, 1, 1, 2, 6), boxedRow(1, 1, 1, 4, 4),
		boxedRow(1, 1, 1, 6, 2), boxedRow(1, 1, 1, 8, 8), boxedRow(3, 1, 1, 4, 0)))
	// Op 2 spoils a row: attribute b%6 gets another type, b%6 = 5 drops
	// the last value. Each must fail alone in both containers.
	write(sp, "FuzzObjectsMatchBoxed", "mistyped-and-short-rows", boxed(1,
		boxedRow(1, 1, 1, 1, 1), []byte{2, 3, 1, 1, 1, 1, 1}, []byte{2, 0, 3, 3, 3, 3, 3},
		[]byte{2, 2, 5, 5, 5, 5, 5}, []byte{2, 5, 7, 7, 7, 7, 7}, boxedRow(9, 9, 9, 9, 9)))
	// Op 3 adds 32(n+1) rows with distinct s values: n = 159 is 5120, past
	// a RowBuilder's 4096-string table, so its rows span two tables.
	write(sp, "FuzzObjectsMatchBoxed", "strings-past-the-arena-table", boxed(3,
		boxedRow(1, 1, 0, 0, 0), []byte{3, 159}, boxedRow(2, 2, 2, 2, 2)))

	// --- dsos.FuzzCursorMatchesQueryEx: streaming merge vs the reference ---
	// Each byte draws one parameter of the cluster and query (the target's
	// doc comment has the layout): shards, R, rows/12, timestamp period,
	// index, from (elements, value), to (elements, value), mistype, limit,
	// down member, under-replicated member.
	ds := "internal/dsos"
	write(ds, "FuzzCursorMatchesQueryEx", "r1-x4-time-head-limit-1000",
		[]byte{3, 0, 120, 40, 2, 0, 0, 0, 0, 0, 2, 0, 0})
	write(ds, "FuzzCursorMatchesQueryEx", "r2-x4-replica-down-read-repair",
		[]byte{3, 1, 150, 20, 0, 1, 7, 2, 12, 0, 0, 2, 1})
	write(ds, "FuzzCursorMatchesQueryEx", "r1-x2-crashed-member-ties-limit-7",
		[]byte{1, 0, 60, 2, 1, 1, 1, 1, 4, 0, 1, 130, 0})
	write(ds, "FuzzCursorMatchesQueryEx", "r2-x3-limit-1-ties",
		[]byte{2, 1, 40, 1, 1, 0, 0, 0, 0, 0, 5, 0, 3})
	write(ds, "FuzzCursorMatchesQueryEx", "mistyped-time-bound", []byte{0, 0, 10, 5, 2, 1, 3, 0, 0, 7})
	write(ds, "FuzzCursorMatchesQueryEx", "only-member-crashed", []byte{0, 0, 20, 5, 0, 0, 0, 0, 0, 0, 0, 129})
	write(ds, "FuzzCursorMatchesQueryEx", "empty-store", []byte{3, 1, 0})

	// --- streams.FuzzStreamCursor: durable segment recovery + cursor resume ---
	// The first two bytes of each seed are the consumer StartSeq the target
	// derives; the rest is segment (or record-body) bytes.
	sm := "internal/streams"
	seg := validSegment()
	write(sm, "FuzzStreamCursor", "valid-segment", append([]byte{2, 0}, seg...))
	write(sm, "FuzzStreamCursor", "torn-tail", append([]byte{1, 0}, seg[:len(seg)*3/4]...))
	write(sm, "FuzzStreamCursor", "corrupt-mid-record", append([]byte{0, 0}, corrupt(seg, len(seg)/2)...))
	write(sm, "FuzzStreamCursor", "future-start-seq", append([]byte{0xFF, 0xFF}, seg...))
	// A frame whose declared string length is maximal: the record decoders'
	// bounded-allocation path.
	write(sm, "FuzzStreamCursor", "hostile-string-length",
		[]byte{0, 0, 0x01, 9, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF})
	write(sm, "FuzzStreamCursor", "empty", nil)
	// The format before the batch entry: replay must keep reading it.
	write(sm, "FuzzStreamCursor", "legacy-segment", append([]byte{2, 0}, legacySegment...))
	write(sm, "FuzzStreamCursor", "legacy-then-batch", append([]byte{0, 0}, legacyThenBatch()...))
	// A CRC-clean batch entry whose record count is a lie: bounded
	// allocation, replay stops at it.
	hostile := []byte{0, 0, 0x04, 1}                       // StartSeq prefix, batch kind, version
	hostile = binary.LittleEndian.AppendUint64(hostile, 1) // firstSeq
	hostile = binary.LittleEndian.AppendUint64(hostile, 0) // appendedAt
	write(sm, "FuzzStreamCursor", "hostile-batch-count", binary.AppendUvarint(hostile, 1<<40))

	// --- streams.FuzzRetention: retention-policy op sequences ---
	// Bytes 0-2 draw the policy (MaxMsgs, MaxBytes, MaxAge); then (op, arg)
	// pairs: append sized payloads, jump the clock, crash and reopen.
	write(sm, "FuzzRetention", "count-bound-churn",
		append([]byte{4, 0, 0}, bytes.Repeat([]byte{0, 32}, 24)...))
	write(sm, "FuzzRetention", "byte-bound-churn",
		append([]byte{0, 2, 0}, bytes.Repeat([]byte{1, 255}, 24)...))
	write(sm, "FuzzRetention", "age-with-clock-jumps",
		append([]byte{0, 0, 3}, bytes.Repeat([]byte{0, 16, 2, 200}, 12)...))
	write(sm, "FuzzRetention", "crash-reopen-cycle",
		append([]byte{3, 3, 2}, bytes.Repeat([]byte{0, 24, 3, 0, 2, 50}, 8)...))
	write(sm, "FuzzRetention", "all-bounds-tight",
		append([]byte{1, 1, 1}, bytes.Repeat([]byte{0, 200, 2, 255, 3, 0}, 8)...))
	// Op 4 appends a batch entry of 1..8 messages: bounds that trim into
	// the middle of a batch, across crashes.
	write(sm, "FuzzRetention", "trim-inside-batch",
		append([]byte{5, 0, 0}, bytes.Repeat([]byte{4, 7, 0, 9, 3, 0}, 8)...))
	write(sm, "FuzzRetention", "batch-byte-bound-reopen",
		append([]byte{0, 3, 2}, bytes.Repeat([]byte{4, 31, 2, 9, 3, 0, 4, 2}, 6)...))

	// --- topo.FuzzRing: consistent-hash ring op sequences ---
	// Two bytes per op: (op%4, arg%8) — add, remove, single-owner lookup,
	// replica-set lookup. The seeds drive membership churn around lookups
	// so the order-independence check replays non-trivial histories.
	tp := "internal/topo"
	write(tp, "FuzzRing", "add-all-remove-all",
		append(bytes.Repeat([]byte{0, 0}, 1), append(grow8(), shrink8()...)...))
	write(tp, "FuzzRing", "churn-with-lookups",
		[]byte{0, 0, 0, 1, 2, 3, 3, 5, 1, 0, 2, 3, 0, 2, 3, 1, 1, 1, 2, 7, 0, 4, 3, 2})
	write(tp, "FuzzRing", "duplicate-adds-absent-removes",
		[]byte{0, 5, 0, 5, 1, 5, 1, 5, 0, 5, 1, 6, 3, 4})
	write(tp, "FuzzRing", "single-member-lookups",
		append([]byte{0, 7}, bytes.Repeat([]byte{2, 1, 3, 6}, 6)...))
	write(tp, "FuzzRing", "empty-ring-lookups",
		bytes.Repeat([]byte{2, 0, 3, 7}, 4))

	// --- scenario.FuzzScenarioSpec: relaxed-JSON scenario spec parser ---
	// Every curated suite spec is a seed (the richest valid inputs the
	// parser sees in practice), plus hostile variants targeting each
	// rejection path: duplicate keys, unknown fields, depth, number range,
	// truncation, comment handling.
	sc := "internal/scenario"
	srcs := scenario.Sources()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		write(sc, "FuzzScenarioSpec", "suite-"+name, srcs[name])
	}
	first := srcs[names[0]]
	write(sc, "FuzzScenarioSpec", "truncated-spec", first[:len(first)/2])
	write(sc, "FuzzScenarioSpec", "duplicate-key",
		[]byte(`{"name":"a","name":"b","horizon_s":1,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "unknown-field",
		[]byte(`{"name":"a","horizon_s":1,"fs":"NFS","wall_clock":true,"cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "deep-nesting",
		append(append(bytes.Repeat([]byte(`{"cluster":`), 24), `{}`...), bytes.Repeat([]byte(`}`), 24)...))
	write(sc, "FuzzScenarioSpec", "huge-number",
		[]byte(`{"name":"a","horizon_s":1e99,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "comment-only", []byte("# nothing but commentary\n// and more\n"))
	write(sc, "FuzzScenarioSpec", "comment-markers-in-strings",
		[]byte(`{"name":"a#b//c","horizon_s":1,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))

	fmt.Fprintf(os.Stderr, "dlc-fuzzcorpus: wrote %d seed files under %s\n", n, *root)
}

// v1Log frames record bodies as a shard log.
func v1Log(bodies ...[]byte) []byte {
	return walLog(func(w *sos.WAL) error {
		for _, b := range bodies {
			if err := sos.AppendFrame(w.Store(), b); err != nil {
				return err
			}
		}
		return nil
	})
}

// v1Record is the body of a v1 shard log record, the format the writer
// wrote before v2, frozen here so the legacy seeds keep their bytes: a row
// record (batch false: one row, token 0) or a batch record tagged token,
// holding the rows (i, "r<i>") with their origins (nil: all 0).
func v1Record(batch bool, token uint64, rows []int, origins []uint64) []byte {
	const tagInt64, tagString = 0, 3
	word := uint32(len("ev"))
	if batch {
		word |= 1 << 31
	}
	b := append(binary.LittleEndian.AppendUint32(nil, word), "ev"...)
	if batch {
		b = binary.LittleEndian.AppendUint64(b, token)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	}
	for k, i := range rows {
		var origin uint64
		if origins != nil {
			origin = origins[k]
		}
		s := fmt.Sprintf("r%d", i)
		b = binary.LittleEndian.AppendUint64(b, origin)
		b = binary.LittleEndian.AppendUint16(b, 2)
		b = binary.LittleEndian.AppendUint64(append(b, tagInt64), uint64(i))
		b = binary.LittleEndian.AppendUint32(append(b, tagString), uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// walLog returns the bytes of a shard log written by appends.
func walLog(appends func(w *sos.WAL) error) []byte {
	mem := sos.NewMemWAL()
	if err := appends(sos.NewWAL(mem)); err != nil {
		fatal(err)
	}
	return readAll(mem)
}

// validSegment builds a durable-stream segment through the public API:
// two single appends and one mixed batch (typed, opaque JSON, string) —
// batch entries all — under count retention that trims into the batch
// (drop markers), a consumer acking three one by one and two as a round
// (cursor records), then the raw segment bytes.
func validSegment() []byte {
	wal := sos.NewMemWAL()
	fillSegment(wal)
	return readAll(wal)
}

func fillSegment(wal *sos.MemWAL) {
	s, err := streams.OpenStream(streams.StreamConfig{
		Name:      "seed",
		Subjects:  []string{"darshan.>"},
		Retention: streams.RetentionPolicy{MaxMsgs: 4},
	}, wal)
	if err != nil {
		fatal(err)
	}
	opaque := func(i int) streams.Message {
		return streams.Message{
			Tag: "darshan.nid00040.POSIX", Type: streams.TypeJSON,
			Data:     []byte(fmt.Sprintf(`{"n":%d}`, i)),
			Producer: "nid00040", Seq: uint64(i),
		}
	}
	for i := 1; i <= 2; i++ {
		if _, err := s.Append(opaque(i)); err != nil {
			fatal(err)
		}
	}
	typed := sampleJSONMsg()
	if _, err := s.AppendBatch([]streams.Message{
		{Tag: "darshan.nid00046.POSIX", Type: streams.TypeJSON, Record: event.NewRecord(&typed, nil), Producer: "nid00046", Seq: 1},
		opaque(3),
		{Tag: "darshan.nid00040.note", Type: streams.TypeString, Data: []byte("hello")},
		opaque(4),
	}); err != nil {
		fatal(err)
	}
	c, err := s.Consumer(streams.ConsumerConfig{Name: "seed-consumer"})
	if err != nil {
		fatal(err)
	}
	ds, err := c.Fetch(4)
	if err != nil {
		fatal(err)
	}
	if err := c.Ack(ds[0].Seq); err != nil {
		fatal(err)
	}
	if err := c.AckBatch(ds[1:3]); err != nil {
		fatal(err)
	}
	if err := c.Nak(ds[3].Seq); err != nil {
		fatal(err)
	}
}

func readAll(wal *sos.MemWAL) []byte {
	r, err := wal.Open()
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	return data
}

// legacySegment is the valid-segment seed as the last commit that still
// wrote one text msg entry per message generated it (six appends under
// MaxMsgs 4, three acks), frozen here because nothing can write that
// format any more and replay must keep reading it.
const legacySegment = "" +
	"K\x00\x00\x00\xa7:\b-\x01\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00darshan.ni" +
	"d00040.POSIX\b\x00\x00\x00nid00040\a\x00\x00\x00{\"n\":1}K\x00\x00\x00d:{\xdd\x01\x02\x00\x00\x00" +
	"\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00darshan.nid00040.POSIX\b" +
	"\x00\x00\x00nid00040\a\x00\x00\x00{\"n\":2}K\x00\x00\x00\x1a8\x85;\x01\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x03\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00darshan.nid00040.POSIX\b\x00\x00\x00nid00040\a\x00" +
	"\x00\x00{\"n\":3}K\x00\x00\x00\xa3=\xec\xe6\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00d" +
	"arshan.nid00040.POSIX\b\x00\x00\x00nid00040\a\x00\x00\x00{\"n\":4}K\x00\x00\x00" +
	"\xdd?\x12\x00\x01\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00darshan.nid000" +
	"40.POSIX\b\x00\x00\x00nid00040\a\x00\x00\x00{\"n\":5}\n\x00\x00\x00\bԘJ\x03\x00\x02\x00\x00\x00\x00\x00\x00" +
	"\x00K\x00\x00\x00\x1e?a\xf0\x01\x06\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00darshan.n" +
	"id00040.POSIX\b\x00\x00\x00nid00040\a\x00\x00\x00{\"n\":6}\n\x00\x00\x00\x96\xd42\x86\x03\x00\x03\x00" +
	"\x00\x00\x00\x00\x00\x00\x1a\x00\x00\x00\x8ah\xf9\x10\x02\x02\x00\x00\x00\x00\x00\x00\x00\r\x00\x00\x00seed-consumer\x1a\x00\x00\x00\x84\xf8r\xb5" +
	"\x02\x03\x00\x00\x00\x00\x00\x00\x00\r\x00\x00\x00seed-consumer\x1a\x00\x00\x00,\x04\"{\x02\x04\x00\x00\x00\x00\x00\x00\x00\r\x00\x00\x00s" +
	"eed-consumer\x1a\x00\x00\x00\"\x94\xa9\xde\x02\x05\x00\x00\x00\x00\x00\x00\x00\r\x00\x00\x00seed-consumer"

// legacyThenBatch is a stream upgraded in place: the frozen pre-batch
// segment with today's entries appended behind it.
func legacyThenBatch() []byte {
	wal := sos.NewMemWAL()
	if _, err := wal.Write([]byte(legacySegment)); err != nil {
		fatal(err)
	}
	s, err := streams.OpenStream(streams.StreamConfig{Name: "seed"}, wal)
	if err != nil {
		fatal(err)
	}
	if _, err := s.AppendBatch([]streams.Message{
		{Tag: "darshan.nid00040.POSIX", Type: streams.TypeJSON, Data: []byte(`{"n":7}`), Producer: "nid00040", Seq: 7},
		{Tag: "darshan.nid00040.note", Type: streams.TypeString, Data: []byte("hello")},
	}); err != nil {
		fatal(err)
	}
	return readAll(wal)
}

// grow8 and shrink8 emit ring-op pairs adding then removing members
// n0..n7, exercising every churn transition including down to empty.
func grow8() []byte {
	var out []byte
	for i := byte(0); i < 8; i++ {
		out = append(out, 0, i)
	}
	return out
}

func shrink8() []byte {
	var out []byte
	for i := byte(0); i < 8; i++ {
		out = append(out, 1, i, 2, i)
	}
	return out
}

// corrupt returns a copy of data with the byte at i inverted.
func corrupt(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0xFF
	return out
}

// gzipEnvelope wraps payload in the log container framing (magic,
// version 1, gzip body) so the seed reaches the inner decoder.
func gzipEnvelope(magic string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{1, 0, 0, 0}) // version, little-endian uint32
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		fatal(err)
	}
	if err := zw.Close(); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func validLog() []byte {
	sum := &darshan.Summary{
		JobID: 259903, UID: 99066, Exe: "/home/user/mpi-io-test",
		Start: 0, End: 90 * time.Second, NProcs: 4, Events: 123,
		Records: []*darshan.Record{{
			Module: darshan.ModPOSIX, RecordID: darshan.RecordID("/nscratch/a"), Rank: 0,
			File: "/nscratch/a", Opens: 2, Closes: 2, Reads: 5, Writes: 10,
			BytesRead: 5 << 20, BytesWritten: 10 << 20, MaxByteWritten: 10<<20 - 1,
		}},
	}
	dxt := []darshan.DXTTrace{{
		Module: darshan.ModPOSIX, Rank: 0, RecordID: darshan.RecordID("/nscratch/a"),
		Segments: []darshan.DXTSegment{
			{Op: darshan.OpOpen, Start: time.Second, End: time.Second + time.Millisecond},
			{Op: darshan.OpWrite, Offset: 0, Length: 1 << 20, Start: 2 * time.Second, End: 3 * time.Second},
		},
	}}
	var buf bytes.Buffer
	if err := darshanlog.Write(&buf, sum, dxt); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func sampleJSONMsg() jsonmsg.Message {
	return jsonmsg.Message{
		UID: 99066, Exe: "/projects/mpi-io-test", JobID: 259903, Rank: 3,
		ProducerName: "nid00046", File: "/nscratch/mpi-io-test.dat",
		RecordID: 1601543006480900062 % (1 << 62), Module: "POSIX", Type: jsonmsg.TypeMET,
		MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "open",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1,
			NPoints: -1, Off: 0, Len: 16 << 20, Dur: 0.35, Timestamp: jsonmsg.EpochBase + 12.5,
		}},
	}
}

func validSnapshot() []byte {
	c := sos.NewContainer("fz")
	sch, err := sos.NewSchema("ev", []sos.AttrSpec{
		{Name: "job_id", Type: sos.TypeInt64},
		{Name: "name", Type: sos.TypeString},
		{Name: "v", Type: sos.TypeFloat64},
	})
	if err != nil {
		fatal(err)
	}
	if err := c.AddSchema(sch); err != nil {
		fatal(err)
	}
	if _, err := c.AddIndex(sos.IndexSpec{Name: "j", Schema: "ev", Attrs: []string{"job_id"}}); err != nil {
		fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Insert("ev", sos.NewObject(int64(i), "x", float64(i))); err != nil {
			fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlc-fuzzcorpus:", err)
	os.Exit(1)
}
