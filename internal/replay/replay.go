// Package replay re-publishes a stored job's event stream onto an LDMS
// Streams bus in absolute-timestamp order, optionally paced against the
// wall clock. It turns retained DSOS data back into the *run-time* feed the
// paper's dashboards consume — useful for demonstrations (watch the
// dashboard fill in as the job "runs") and for regression-testing analysis
// pipelines against recorded campaigns.
package replay

import (
	"context"
	"fmt"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// Options controls a replay.
type Options struct {
	// Speedup divides the original inter-event gaps (10 = 10x faster than
	// the original run). <= 0 replays as fast as possible (no pacing).
	Speedup float64
	// Tag overrides the stream tag (default connector tag).
	Tag string
	// Encoder serializes the reconstructed messages (default Fast).
	Encoder jsonmsg.Encoder
}

// Stats reports a finished replay.
type Stats struct {
	Events   int
	Duration time.Duration // wall-clock time spent replaying
	Span     float64       // original timestamp span (seconds)
}

// Job replays every stored event of jobID onto bus, in timestamp order.
// ctx cancels a paced replay early.
func Job(ctx context.Context, client *dsos.Client, jobID int64, bus *streams.Bus, opts Options) (*Stats, error) {
	from, to, err := dsos.DarshanBounds("job_time_rank", &jobID, nil)
	if err != nil {
		return nil, err
	}
	objs, err := client.Query("job_time_rank", from, to)
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("replay: job %d has no stored events", jobID)
	}
	tag := opts.Tag
	if tag == "" {
		tag = "darshanConnector"
	}
	enc := opts.Encoder
	if enc == nil {
		enc = jsonmsg.FastEncoder{}
	}
	start := time.Now()
	t0 := objs[0].Float(jsonmsg.ColSegTimestamp)
	tLast := objs[len(objs)-1].Float(jsonmsg.ColSegTimestamp)
	for _, o := range objs {
		if opts.Speedup > 0 {
			due := time.Duration((o.Float(jsonmsg.ColSegTimestamp) - t0) / opts.Speedup * float64(time.Second))
			if wait := due - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		m := messageFromObject(o)
		bus.PublishJSON(tag, enc.Encode(&m))
	}
	return &Stats{Events: len(objs), Duration: time.Since(start), Span: tLast - t0}, nil
}

// messageFromObject reconstructs the connector message from a stored row
// (the inverse of dsos.ObjectsFromMessage for single-seg messages).
func messageFromObject(o sos.Object) jsonmsg.Message {
	m := jsonmsg.Message{Seg: make([]jsonmsg.Segment, 1)}
	for i := range jsonmsg.Table {
		c := &jsonmsg.Table[i]
		c.Set(&m, &m.Seg[0], o.Value(c.Row))
	}
	return m
}
