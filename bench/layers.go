package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"darshanldms/internal/analysis"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// The layer ledger times calls into each module's public functions from
// outside, over one seeded event set. The clock and the allocation
// counter are read once around a whole batch of calls, never per call, so
// the reading costs nothing against a sub-microsecond operation.

// layerBatch is the frame size every batched layer uses, the same as the
// firehoses and ldmsd's -batch.
const layerBatch = 64

// layerSizes sets how much work the ledger does. fullLayers is the
// benchmark; the smoke test shrinks every field.
type layerSizes struct {
	events      int // seeded events per timed layer
	quietStore  int // events in the store the query layers read
	idleSamples int // idle wake-ups timed for ldms.uplink_idle_p50_ms
}

// fullLayers: 200k events per layer, and the same 320k-event store
// query-under-ingest preloads.
var fullLayers = layerSizes{events: 200000, quietStore: 320000, idleSamples: 60}

// ledger collects per-layer metrics by name.
type ledger struct {
	metrics map[string]float64
	samples map[string]int
	seed    uint64
	sizes   layerSizes
	dir     string // scratch directory for FileWALs
	nfile   int
}

// timed runs fn (events operations' worth of calls) between one pair of
// clock and allocation readings and records <name>_ns and <name>_allocs
// per event.
func (l *ledger) timed(name string, events int, fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.metrics[name+"_ns"] = float64(elapsed.Nanoseconds()) / float64(events)
	l.metrics[name+"_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(events)
	l.samples[name] = events
	return nil
}

// walFile opens a fresh FileWAL in the scratch directory.
func (l *ledger) walFile() (*sos.FileWAL, string, error) {
	l.nfile++
	path := filepath.Join(l.dir, "layer-"+strconv.Itoa(l.nfile)+".wal")
	fw, err := sos.OpenFileWAL(path)
	return fw, path, err
}

// nopStore is the no-op inner store the dedup layer wraps.
type nopStore struct{}

func (nopStore) Name() string                { return "nop" }
func (nopStore) Store(streams.Message) error { return nil }

// sink defeats dead-code elimination of pure calls.
var sink int

// layerInput is the one seeded event set every layer reads, in the three
// forms the pipeline handles it: typed fields, typed stream messages (the
// batched path) and byte-payload stream messages (the durable path after
// its first stream append). Layers only read it.
type layerInput struct {
	msgs  []*jsonmsg.Message
	typed []streams.Message
	bytes []streams.Message
}

// runLayers measures every in-process layer over seeded events and
// returns the ledger. dir is scratch space inside the checkout.
func runLayers(seed uint64, sizes layerSizes, dir string) (*ledger, error) {
	dir, err := os.MkdirTemp(dir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &ledger{metrics: map[string]float64{}, samples: map[string]int{}, seed: seed, sizes: sizes, dir: dir}
	n := sizes.events / layerBatch * layerBatch
	msgs := newGenerator(seed).messages(n, 1)
	in := &layerInput{msgs: msgs, typed: wrap(msgs), bytes: byteMessages(msgs)}

	steps := []func(*ledger, *layerInput) error{
		layerJSON, layerEventCodec, layerFrames, layerBatchFrames, layerTCP,
		layerDedupBus, layerStreams, layerUplink, layerSOS, layerDSOS, layerQueries,
	}
	for _, step := range steps {
		if err := step(l, in); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func layerJSON(l *ledger, in *layerInput) error {
	msgs := in.msgs
	enc := jsonmsg.FastEncoder{}
	payloads := make([][]byte, len(msgs))
	if err := l.timed("jsonmsg.encode", len(msgs), func() error {
		for i, m := range msgs {
			payloads[i] = enc.Encode(m)
		}
		return nil
	}); err != nil {
		return err
	}
	return l.timed("jsonmsg.parse", len(msgs), func() error {
		for _, p := range payloads {
			m, err := jsonmsg.Parse(p)
			if err != nil {
				return err
			}
			sink += m.Rank
		}
		return nil
	})
}

func layerEventCodec(l *ledger, in *layerInput) error {
	msgs := in.msgs
	var buf []byte
	offs := make([]int, 0, len(msgs)+1)
	if err := l.timed("event.encode", len(msgs), func() error {
		for _, m := range msgs {
			offs = append(offs, len(buf))
			buf = event.AppendMessage(buf, m)
		}
		return nil
	}); err != nil {
		return err
	}
	offs = append(offs, len(buf))
	if err := l.timed("event.slab_decode", len(msgs), func() error {
		return slabDecode(buf, offs)
	}); err != nil {
		return err
	}
	// The miss variant gives every record its own file name, 100k distinct
	// strings against an interner bounded at 2^15: every lookup past the
	// bound allocates, which is the cost a job with many files pays.
	const distinct = 100000
	var mbuf []byte
	moffs := make([]int, 0, len(msgs)+1)
	for i, m := range msgs {
		c := *m
		c.File = "/lscratch/bench/many/file." + strconv.Itoa(i%distinct) + ".dat"
		moffs = append(moffs, len(mbuf))
		mbuf = event.AppendMessage(mbuf, &c)
	}
	moffs = append(moffs, len(mbuf))
	return l.timed("event.slab_decode_miss", len(msgs), func() error {
		return slabDecode(mbuf, moffs)
	})
}

// slabDecode decodes records offs[i]..offs[i+1] of buf through one
// interner, a fresh pooled slab per layerBatch records, as a connection's
// BatchDecoder does per frame.
func slabDecode(buf []byte, offs []int) error {
	var pool event.SlabPool
	in := event.NewInterner()
	for i := 0; i+1 < len(offs); i += layerBatch {
		slab := pool.Get()
		for j := i; j < i+layerBatch && j+1 < len(offs); j++ {
			m, _, err := event.DecodeMessageSlab(buf[offs[j]:offs[j+1]], slab, in)
			if err != nil {
				slab.Release()
				return err
			}
			sink += m.Rank
		}
		slab.Release()
	}
	return nil
}

// byteMessages are msgs as the durable path sees them after the first
// stream append: payload bytes plus the out-of-band identity.
func byteMessages(msgs []*jsonmsg.Message) []streams.Message {
	enc := jsonmsg.FastEncoder{}
	out := make([]streams.Message, len(msgs))
	for i, m := range msgs {
		out[i] = streams.Message{Tag: streamTag, Type: streams.TypeJSON, Data: enc.Encode(m), Producer: m.ProducerName, Seq: m.Seq}
	}
	return out
}

func layerFrames(l *ledger, in *layerInput) error {
	bm := in.bytes
	// Writes go to a buffer rewound every batch, as a connection's
	// bufio.Writer is flushed: a buffer left to grow would bill its own
	// reallocation to the frame writer.
	var wire bytes.Buffer
	if err := l.timed("ldms.frame_write", len(bm), func() error {
		for i, m := range bm {
			if i%layerBatch == 0 {
				wire.Reset()
			}
			if err := ldms.WriteFrame(&wire, m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	wire.Reset()
	for _, m := range bm {
		if err := ldms.WriteFrame(&wire, m); err != nil {
			return err
		}
	}
	rd := bytes.NewReader(wire.Bytes())
	return l.timed("ldms.frame_read", len(bm), func() error {
		for range bm {
			m, err := ldms.ReadFrame(rd)
			if err != nil {
				return err
			}
			sink += len(m.Data)
		}
		return nil
	})
}

func layerBatchFrames(l *ledger, in *layerInput) error {
	tm := in.typed
	var wire bytes.Buffer
	if err := l.timed("ldms.batch_write", len(tm), func() error {
		for i := 0; i < len(tm); i += layerBatch {
			wire.Reset()
			if err := ldms.WriteBatchFrame(&wire, tm[i:i+layerBatch]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	wire.Reset()
	for i := 0; i < len(tm); i += layerBatch {
		if err := ldms.WriteBatchFrame(&wire, tm[i:i+layerBatch]); err != nil {
			return err
		}
	}
	rd := bytes.NewReader(wire.Bytes())
	dec := ldms.NewBatchDecoder()
	return l.timed("ldms.batch_read", len(tm), func() error {
		for i := 0; i < len(tm); i += layerBatch {
			ms, slab, err := dec.ReadBatchFrameSlab(rd)
			if err != nil {
				return err
			}
			sink += len(ms)
			slab.Release()
		}
		return nil
	})
}

// countingServer is a loopback ldms server whose bus ends in a CountStore.
type countingServer struct {
	srv   *ldms.TCPServer
	count *ldms.CountStore
	h     *ldms.StoreHandle
}

func newCountingServer() (*countingServer, error) {
	d := ldms.NewDaemon("bench-sink", "bench-sink")
	c := &ldms.CountStore{}
	h := d.AttachStore(streamTag, c)
	srv, err := ldms.ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	return &countingServer{srv: srv, count: c, h: h}, nil
}

// await blocks until n messages have reached the store.
func (s *countingServer) await(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.count.Count() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("loopback server stored %d of %d messages after %s", s.count.Count(), n, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func (s *countingServer) close() {
	s.srv.Close()
	s.h.Close()
}

func layerTCP(l *ledger, in *layerInput) error {
	bm, tm := in.bytes, in.typed
	for _, c := range []struct {
		name string
		send func(*ldms.TCPClient) error
	}{
		{"ldms.tcp_single", func(cl *ldms.TCPClient) error {
			for _, m := range bm {
				if err := cl.Publish(m); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ldms.tcp_batch", func(cl *ldms.TCPClient) error {
			for i := 0; i < len(tm); i += layerBatch {
				if err := cl.PublishBatch(tm[i : i+layerBatch]); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		srv, err := newCountingServer()
		if err != nil {
			return err
		}
		cl, err := ldms.DialTCP(srv.srv.Addr())
		if err != nil {
			srv.close()
			return err
		}
		err = l.timed(c.name, len(bm), func() error {
			if err := c.send(cl); err != nil {
				return err
			}
			return srv.await(uint64(len(bm)), 60*time.Second)
		})
		cl.Close()
		srv.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func layerDedupBus(l *ledger, in *layerInput) error {
	tm := in.typed
	dd := ldms.NewDedupStore(nopStore{})
	if err := l.timed("ldms.dedup", len(tm), func() error {
		for _, m := range tm {
			if err := dd.Store(m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	bus := streams.NewBus()
	sub := bus.Subscribe(streamTag, func(m streams.Message) { sink += int(m.Seq) })
	defer sub.Close()
	return l.timed("streams.bus_publish", len(tm), func() error {
		for _, m := range tm {
			if bus.Publish(m) != 1 {
				return fmt.Errorf("publish reached no subscriber")
			}
		}
		return nil
	})
}

// daemonRetention is the retention both daemons run their streams with.
var daemonRetention = streams.RetentionPolicy{MaxMsgs: 100000}

func openStream(name string, fw *sos.FileWAL, ret streams.RetentionPolicy) (*streams.DurableStream, error) {
	return streams.OpenStream(streams.StreamConfig{Name: name, Subjects: []string{streamTag}, Retention: ret, Clock: obs.WallClock()}, fw)
}

func layerStreams(l *ledger, in *layerInput) error {
	bm := in.bytes
	fw, path, err := l.walFile()
	if err != nil {
		return err
	}
	defer fw.Close()
	st, err := openStream("bench-append", fw, daemonRetention)
	if err != nil {
		return err
	}
	if err := l.timed("streams.append", len(bm), func() error {
		for _, m := range bm {
			if _, err := st.Append(m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.metrics["streams.bytes_per_event"] = float64(info.Size()) / float64(len(bm))

	// Fetch+ack runs over a stream that still holds every message, so the
	// consumer is never starved by retention.
	fw2, _, err := l.walFile()
	if err != nil {
		return err
	}
	defer fw2.Close()
	full, err := openStream("bench-fetch", fw2, streams.RetentionPolicy{})
	if err != nil {
		return err
	}
	for _, m := range bm {
		if _, err := full.Append(m); err != nil {
			return err
		}
	}
	cons, err := full.Consumer(streams.ConsumerConfig{Name: "bench"})
	if err != nil {
		return err
	}
	defer cons.Close()
	return l.timed("streams.fetch_ack", len(bm), func() error {
		for got := 0; got < len(bm); {
			ds, err := cons.Fetch(layerBatch)
			if err != nil {
				return err
			}
			if len(ds) == 0 {
				return fmt.Errorf("consumer ran dry at %d of %d", got, len(bm))
			}
			for _, d := range ds {
				if err := cons.Ack(d.Seq); err != nil {
					return err
				}
			}
			got += len(ds)
		}
		return nil
	})
}

func layerUplink(l *ledger, in *layerInput) error {
	bm := in.bytes
	fw, _, err := l.walFile()
	if err != nil {
		return err
	}
	defer fw.Close()
	st, err := openStream("bench-uplink", fw, streams.RetentionPolicy{})
	if err != nil {
		return err
	}
	for _, m := range bm {
		if _, err := st.Append(m); err != nil {
			return err
		}
	}
	srv, err := newCountingServer()
	if err != nil {
		return err
	}
	defer srv.close()
	var up *ldms.StreamUplink
	err = l.timed("ldms.uplink_drain", len(bm), func() error {
		var err error
		if up, err = ldms.NewStreamUplink(st, ldms.UplinkConfig{Addr: srv.srv.Addr(), Seed: 1}); err != nil {
			return err
		}
		return srv.await(uint64(len(bm)), 120*time.Second)
	})
	if up != nil {
		defer up.Close()
	}
	if err != nil {
		return err
	}
	// Idle wake-up: with the uplink parked in its poll sleep, append one
	// message and time its arrival. The sleeps between samples are a
	// non-multiple of the poll interval so samples land at every phase.
	lat := make([]float64, 0, l.sizes.idleSamples)
	stored := uint64(len(bm))
	for i := 0; i < l.sizes.idleSamples; i++ {
		time.Sleep(13*time.Millisecond + time.Duration(i%7)*time.Millisecond)
		m := bm[i]
		m.Seq += uint64(len(bm)) // a fresh identity
		start := time.Now()
		if _, err := st.Append(m); err != nil {
			return err
		}
		stored++
		if err := srv.await(stored, 10*time.Second); err != nil {
			return err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	l.metrics["ldms.uplink_idle_p50_ms"] = median(lat)
	l.samples["ldms.uplink_idle"] = len(lat)
	return nil
}

// heapRows builds one store row per message with the boxing builder, so
// the insert layers time the insert alone.
func heapRows(msgs []*jsonmsg.Message) []sos.Object {
	rows := make([]sos.Object, 0, len(msgs))
	for _, m := range msgs {
		rows = dsos.AppendObjects(rows, m)
	}
	return rows
}

func newContainer(indices []sos.IndexSpec) (*sos.Container, error) {
	c := sos.NewContainer("bench")
	if err := c.AddSchema(dsos.DarshanSchema()); err != nil {
		return nil, err
	}
	for _, spec := range indices {
		if _, err := c.AddIndex(spec); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func layerSOS(l *ledger, in *layerInput) error {
	msgs := in.msgs
	rows := heapRows(msgs)
	all := dsos.DarshanIndices()
	var three *sos.Container
	for _, c := range []struct {
		name    string
		indices []sos.IndexSpec
	}{{"sos.insert_3idx", all}, {"sos.insert_1idx", all[:1]}} {
		cont, err := newContainer(c.indices)
		if err != nil {
			return err
		}
		if err := l.timed(c.name, len(rows), func() error {
			for _, o := range rows {
				if err := cont.Insert(dsos.DarshanSchemaName, o); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if three == nil {
			three = cont
		}
	}
	fw, path, err := l.walFile()
	if err != nil {
		return err
	}
	defer fw.Close()
	wal := sos.NewWAL(fw)
	if err := l.timed("sos.wal_append", len(rows), func() error {
		for _, o := range rows {
			if err := wal.Append(dsos.DarshanSchemaName, o, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.metrics["sos.wal_bytes_per_event"] = float64(info.Size()) / float64(len(rows))
	// Range: every job in turn, so the rows returned add up to the store.
	return l.timed("sos.range_row", len(rows), func() error {
		got := 0
		for job := int64(1); job <= jobsPerStream; job++ {
			objs, err := three.Range("job_rank_time", sos.Key{job}, sos.Key{job + 1})
			if err != nil {
				return err
			}
			got += len(objs)
		}
		if got != len(rows) {
			return fmt.Errorf("ranges returned %d of %d rows", got, len(rows))
		}
		return nil
	})
}

func newClient() (*dsos.Cluster, *dsos.Client, error) {
	c := dsos.NewCluster(4, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		return nil, nil, err
	}
	return c, dsos.Connect(c), nil
}

func layerDSOS(l *ledger, in *layerInput) error {
	msgs := in.msgs
	arena := dsos.NewRowArena()
	var scratch []sos.Object
	if err := l.timed("dsos.row_build", len(msgs), func() error {
		for _, m := range msgs {
			scratch = arena.AppendObjects(scratch[:0], m)
			sink += len(scratch)
		}
		return nil
	}); err != nil {
		return err
	}
	rows := heapRows(msgs)
	insertAll := func(cl *dsos.Client) func() error {
		return func() error {
			for i := 0; i < len(rows); i += layerBatch {
				if err := cl.InsertBatch(dsos.DarshanSchemaName, rows[i:i+layerBatch]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	_, cl, err := newClient()
	if err != nil {
		return err
	}
	if err := l.timed("dsos.insert_batch", len(rows), insertAll(cl)); err != nil {
		return err
	}
	// The WAL variant re-inserts fresh copies: the first cluster retains
	// the rows above.
	rows = heapRows(msgs)
	cluster, cl, err := newClient()
	if err != nil {
		return err
	}
	var wals []*sos.FileWAL
	defer func() {
		for _, fw := range wals {
			fw.Close()
		}
	}()
	var werr error
	cluster.EnableWAL(func(string) sos.WALStore {
		fw, _, err := l.walFile()
		if err != nil {
			werr = err
			return sos.NewMemWAL()
		}
		wals = append(wals, fw)
		return fw
	})
	if werr != nil {
		return werr
	}
	if err := l.timed("dsos.insert_batch_wal", len(rows), insertAll(cl)); err != nil {
		return err
	}
	_, cl, err = newClient()
	if err != nil {
		return err
	}
	store := ldms.NewDSOSStore(cl)
	return l.timed("ldms.dsos_store", len(in.typed), func() error {
		for _, m := range in.typed {
			if err := store.Store(m); err != nil {
				return err
			}
		}
		return nil
	})
}

func layerQueries(l *ledger, _ *layerInput) error {
	_, cl, err := newClient()
	if err != nil {
		return err
	}
	// Build the quiet store from a generator of its own so its content
	// does not depend on how many events the other layers used.
	g := newGenerator(l.seed + 1)
	arena := dsos.NewRowArena()
	var batch []sos.Object
	var m jsonmsg.Message
	m.Seg = make([]jsonmsg.Segment, 1)
	for i := 0; i < l.sizes.quietStore; i += layerBatch {
		batch = batch[:0]
		for j := 0; j < layerBatch; j++ {
			g.fill(&m, 1)
			batch = arena.AppendObjects(batch, &m)
		}
		if err := cl.InsertBatch(dsos.DarshanSchemaName, batch); err != nil {
			return err
		}
	}
	timeEach := func(name string, reps int, q func(i int) (int, error)) error {
		lat := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			n, err := q(i)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			lat = append(lat, ms(time.Since(start)))
			if n == 0 {
				return fmt.Errorf("%s: empty result", name)
			}
		}
		l.metrics[name] = median(lat)
		l.samples[name] = reps
		return nil
	}
	job := func(i int) int64 { return 1 + int64(i*7%jobsPerStream) }
	if err := timeEach("dsos.query_rank_ms", 200, func(i int) (int, error) {
		rank := int64(i * 13 % ranksPerJob)
		objs, err := cl.Query("job_rank_time", sos.Key{job(i), rank}, sos.Key{job(i), rank + 1})
		return len(objs), err
	}); err != nil {
		return err
	}
	if err := timeEach("dsos.query_job_ms", 9, func(i int) (int, error) {
		objs, err := cl.Query("job_time_rank", sos.Key{job(i)}, sos.Key{job(i) + 1})
		return len(objs), err
	}); err != nil {
		return err
	}
	if err := timeEach("dsos.query_time_ms", 5, func(int) (int, error) {
		objs, err := cl.Query("time_job_rank", nil, nil)
		return len(objs), err
	}); err != nil {
		return err
	}
	if err := timeEach("analysis.bytes_timeline_ms", 9, func(i int) (int, error) {
		bins, err := analysis.BytesTimeline(cl, job(i), 64)
		return len(bins), err
	}); err != nil {
		return err
	}
	return timeEach("analysis.frame_build_ms", 9, func(i int) (int, error) {
		f, err := analysis.FrameForJobs(cl, []int64{job(i)})
		if err != nil {
			return 0, err
		}
		return f.Len(), nil
	})
}
