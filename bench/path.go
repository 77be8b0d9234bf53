package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/ldms"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// The path traces replay, in one goroutine, the public calls a batch of
// events goes through on each topology, with a span around every stage of
// every batch. Spans are kept in memory and written out at the end. A
// stage's self time is its span minus the part its child spans cover, so
// the shares below add up to the path total without double counting.

// span is one stage of one batch. Parent is the index of the enclosing
// span in the trace (-1 for a batch's root); spans of one batch share its
// id.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
	Calls   int    `json:"calls"`
}

// tracer records spans in memory.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	batch int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, calls int) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: t.batch, Calls: calls, StartNs: time.Since(t.epoch).Nanoseconds()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
}

// stage runs fn inside a span.
func (t *tracer) stage(name string, calls int, fn func() error) error {
	t.begin(name, calls)
	err := fn()
	t.end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// stageShare is one stage's cost within a path.
type stageShare struct {
	Name       string  `json:"name"`
	Spans      int     `json:"spans"`
	Calls      int     `json:"calls"`
	SelfNs     int64   `json:"self_ns"`
	NsPerEvent float64 `json:"self_ns_per_event"`
	SharePct   float64 `json:"share_pct"`
}

// pathTrace is what a path replay writes to bench/out/trace-<path>.json.
type pathTrace struct {
	Path       string       `json:"path"`
	Events     int          `json:"events"`
	Batches    int          `json:"batches"`
	TotalNs    int64        `json:"total_ns"`
	NsPerEvent float64      `json:"ns_per_event"`
	Stages     []stageShare `json:"stages"`
	// Spans holds the first batches in full; the stage table is computed
	// from every span.
	Spans []span `json:"spans"`
}

// rootName is the span that wraps one batch.
const rootName = "batch"

// selfTimes folds spans into per-stage self time: each span's duration
// minus its direct children's. Root spans' own self time is the replay
// loop's overhead and is reported under its name like any stage.
func selfTimes(spans []span) map[string]*stageShare {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]*stageShare{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &stageShare{Name: s.Name}
			out[s.Name] = st
		}
		st.Spans++
		st.Calls += s.Calls
		st.SelfNs += s.EndNs - s.StartNs - child[i]
	}
	return out
}

// summarizeTrace turns a finished tracer into the path report.
func summarizeTrace(path string, t *tracer, events, keepBatches int) *pathTrace {
	pt := &pathTrace{Path: path, Events: events, Batches: t.batch}
	for _, st := range selfTimes(t.spans) {
		pt.TotalNs += st.SelfNs
		pt.Stages = append(pt.Stages, *st)
	}
	for i := range pt.Stages {
		st := &pt.Stages[i]
		st.NsPerEvent = float64(st.SelfNs) / float64(events)
		st.SharePct = 100 * float64(st.SelfNs) / float64(pt.TotalNs)
	}
	sort.Slice(pt.Stages, func(i, j int) bool { return pt.Stages[i].SelfNs > pt.Stages[j].SelfNs })
	pt.NsPerEvent = float64(pt.TotalNs) / float64(events)
	for _, s := range t.spans {
		if s.Batch < keepBatches {
			pt.Spans = append(pt.Spans, s)
		}
	}
	return pt
}

// share returns the summed share of every stage whose name starts with
// one of the prefixes.
func (pt *pathTrace) share(prefixes ...string) float64 {
	var pct float64
	for _, st := range pt.Stages {
		for _, p := range prefixes {
			if strings.HasPrefix(st.Name, p) {
				pct += st.SharePct
				break
			}
		}
	}
	return pct
}

// durableOnlyStages are the stages the issue predicts carry at least half
// of path.durable and none of path.besteffort.
var durableOnlyStages = []string{"streams.", "jsonmsg.", "ldms.frame_", "ldms.dedup", "sos.wal_append"}

func (pt *pathTrace) write(dir string) error {
	data, err := json.MarshalIndent(pt, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+strings.TrimPrefix(pt.Path, "path.")+".json"), append(data, '\n'), 0o644)
}

// spanStore wraps a store plugin in a span, so a store nested inside
// another (dedup around dsos) shows up as a child and the outer one keeps
// only its self time.
type spanStore struct {
	t     *tracer
	name  string
	inner ldms.StorePlugin
}

func (s spanStore) Name() string { return s.inner.Name() }
func (s spanStore) Store(m streams.Message) error {
	s.t.begin(s.name, 1)
	err := s.inner.Store(m)
	s.t.end()
	return err
}

// tracePathDurable replays the durable topology's call sequence over the
// frames of s: ldmsd receives a batch, publishes and appends each message
// to its stream (forcing the JSON encode), the uplink fetches, writes one
// JSON frame per message and acks; dsosd reads the frames, appends to its
// ingest stream, and the ingest loop fetches, dedups, stores (forcing the
// parse) and logs each row to the shard WAL before acking.
func tracePathDurable(s *eventStream, dir string) (*pathTrace, error) {
	dir, err := os.MkdirTemp(dir, "path-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	openWAL := func(name string) (*sos.FileWAL, error) { return sos.OpenFileWAL(filepath.Join(dir, name)) }
	lw, err := openWAL("ldmsd.stream")
	if err != nil {
		return nil, err
	}
	defer lw.Close()
	dw, err := openWAL("dsosd.stream")
	if err != nil {
		return nil, err
	}
	defer dw.Close()
	sw, err := openWAL("shard.wal")
	if err != nil {
		return nil, err
	}
	defer sw.Close()
	lstream, err := openStream("ldmsd", lw, daemonRetention)
	if err != nil {
		return nil, err
	}
	dstream, err := openStream("dsosd-ingest", dw, daemonRetention)
	if err != nil {
		return nil, err
	}
	uplink, err := lstream.Consumer(streams.ConsumerConfig{Name: "uplink", MaxInflight: 2 * layerBatch})
	if err != nil {
		return nil, err
	}
	defer uplink.Close()
	ingest, err := dstream.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		return nil, err
	}
	defer ingest.Close()
	_, cl, err := newClient()
	if err != nil {
		return nil, err
	}

	t := newTracer()
	bus := streams.NewBus()
	count := &ldms.CountStore{}
	sub := bus.Subscribe(streamTag, func(m streams.Message) { _ = count.Store(m) }) // CountStore never fails
	defer sub.Close()
	dedup := ldms.NewDedupStore(spanStore{t, "ldms.dsos_store", ldms.NewDSOSStore(cl)})
	wal := sos.NewWAL(sw)
	dec := ldms.NewBatchDecoder()
	var wire bytes.Buffer
	var rows []sos.Object

	for bi, f := range s.frames {
		t.batch = bi
		t.begin(rootName, 0)
		rd := bytes.NewReader(s.bytes(f))
		var msgs []streams.Message
		var slab *event.Slab
		if err := t.stage("ldms.batch_read", 1, func() (err error) {
			msgs, slab, err = dec.ReadBatchFrameSlab(rd)
			return err
		}); err != nil {
			return nil, err
		}
		n := len(msgs)
		_ = t.stage("streams.bus_publish", n, func() error {
			for _, m := range msgs {
				bus.Publish(m)
			}
			return nil
		})
		_ = t.stage("jsonmsg.encode", n, func() error {
			for _, m := range msgs {
				sink += len(m.Payload())
			}
			return nil
		})
		err := t.stage("streams.append", n, func() error {
			for _, m := range msgs {
				if _, err := lstream.Append(m); err != nil {
					return err
				}
			}
			return nil
		})
		slab.Release()
		if err != nil {
			return nil, err
		}
		wire.Reset()
		if err := t.stage("streams.fetch_ack", n, func() error {
			ds, err := uplink.Fetch(layerBatch)
			if err != nil {
				return err
			}
			if len(ds) != n {
				return fmt.Errorf("uplink fetched %d of %d", len(ds), n)
			}
			for _, d := range ds {
				t.begin("ldms.frame_write", 1)
				err := ldms.WriteFrame(&wire, d.Msg)
				t.end()
				if err != nil {
					return err
				}
				if err := uplink.Ack(d.Seq); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		received := make([]streams.Message, 0, n)
		if err := t.stage("ldms.frame_read", n, func() error {
			for i := 0; i < n; i++ {
				m, err := ldms.ReadFrame(&wire)
				if err != nil {
					return err
				}
				m.Record = event.FromPayload(m.Data)
				received = append(received, m)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := t.stage("streams.append", n, func() error {
			for _, m := range received {
				if _, err := dstream.Append(m); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := t.stage("streams.fetch_ack", n, func() error {
			ds, err := ingest.Fetch(layerBatch)
			if err != nil {
				return err
			}
			if len(ds) != n {
				return fmt.Errorf("ingest fetched %d of %d", len(ds), n)
			}
			for _, d := range ds {
				t.begin("jsonmsg.parse", 1)
				fields, err := event.Fields(d.Msg)
				t.end()
				if err != nil {
					return err
				}
				t.begin("ldms.dedup", 1)
				err = dedup.Store(d.Msg)
				t.end()
				if err != nil {
					return err
				}
				// The shard logs each row before it inserts it; replayed
				// here as its own call so the WAL's share is visible.
				t.begin("sos.wal_append", 1)
				rows = dsos.AppendObjects(rows[:0], fields)
				for _, o := range rows {
					if err = wal.Append(dsos.DarshanSchemaName, o, 0); err != nil {
						break
					}
				}
				t.end()
				if err != nil {
					return err
				}
				if err := ingest.Ack(d.Seq); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		t.end()
	}
	t.batch = len(s.frames)
	if got := cl.Count(dsos.DarshanSchemaName); got != s.events {
		return nil, fmt.Errorf("path.durable stored %d of %d events", got, s.events)
	}
	return summarizeTrace("path.durable", t, s.events, 16), nil
}

// tracePathBestEffort replays the batched path's store side: dsosd reads
// a batch frame into a slab, builds each message's rows in the arena and
// inserts them, exactly as its DSOS store plugin does per message.
func tracePathBestEffort(s *eventStream) (*pathTrace, error) {
	_, cl, err := newClient()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	dec := ldms.NewBatchDecoder()
	arena := dsos.NewRowArena()
	var rows []sos.Object
	for bi, f := range s.frames {
		t.batch = bi
		t.begin(rootName, 0)
		rd := bytes.NewReader(s.bytes(f))
		var msgs []streams.Message
		var slab *event.Slab
		if err := t.stage("ldms.batch_read", 1, func() (err error) {
			msgs, slab, err = dec.ReadBatchFrameSlab(rd)
			return err
		}); err != nil {
			return nil, err
		}
		for _, m := range msgs {
			fields, err := event.Fields(m)
			if err != nil {
				slab.Release()
				return nil, err
			}
			t.begin("dsos.row_build", 1)
			rows = arena.AppendObjects(rows[:0], fields)
			t.end()
			t.begin("dsos.insert_batch", 1)
			err = cl.InsertBatch(dsos.DarshanSchemaName, rows)
			t.end()
			if err != nil {
				slab.Release()
				return nil, err
			}
		}
		slab.Release()
		t.end()
	}
	t.batch = len(s.frames)
	if got := cl.Count(dsos.DarshanSchemaName); got != s.events {
		return nil, fmt.Errorf("path.besteffort stored %d of %d events", got, s.events)
	}
	return summarizeTrace("path.besteffort", t, s.events, 16), nil
}
