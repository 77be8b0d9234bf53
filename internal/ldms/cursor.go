package ldms

import (
	"errors"
	"fmt"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/streams"
)

// RoundSize bounds one round of a durable hop: a fetch of the store hop,
// and the stream uplink's default BatchSize.
const RoundSize = 64

// Cursor is the consumer round step every durable hop shares: the
// stream uplink's source, IngestStream's commit loop and the virtual-time
// soaks, which call it from their own schedule. A round is one
// non-blocking fetch of up to max deliveries, cut where the stream stored
// its batches (batchRuns), and it settles with one batch ack of its first
// n deliveries and a nak of the rest. Nothing is ever dropped: the
// backlog is the stream itself. A round never settled — the process died
// between handing it on and the ack — is redelivered whole after the ack
// deadline or a Redeliver, which is safe because the hop below
// deduplicates by (producer, seq).
type Cursor struct {
	cons *streams.Consumer
	max  int
	// bodies fetches with FetchBodies: a run that is one whole stored
	// batch comes as its stored body, its messages left zero.
	bodies bool
	// linger is how long take lets a partial round wait to fill.
	linger time.Duration

	round  []streams.Delivery // fetched, not yet settled
	msgs   []streams.Message  // the round's messages; backing array reused
	ends   []int              // the round's batch runs (batchRuns); reused
	stored [][]byte           // each run's Body (FetchBodies); reused
}

// NewCursor returns the round step over cons, at most max deliveries a
// round.
func NewCursor(cons *streams.Consumer, max int) *Cursor {
	return &Cursor{cons: cons, max: max}
}

// NewStoreCursor returns the round step of a store hop, IngestStream's:
// RoundSize deliveries a round, each whole stored batch fetched as the
// body it rests as, which Commit hands to the store undecoded.
func NewStoreCursor(cons *streams.Consumer) *Cursor {
	return &Cursor{cons: cons, max: RoundSize, bodies: true}
}

// Next fetches the next round without blocking: its messages and the
// exclusive end of each of its stored-batch runs, both valid until the
// next call. An empty round means nothing is deliverable now; an error
// means the consumer was closed or replaced. Next drops a round not yet
// settled, whose deliveries stay inflight until their deadline.
func (c *Cursor) Next() ([]streams.Message, []int, error) {
	fetch := c.cons.Fetch
	if c.bodies {
		fetch = c.cons.FetchBodies
	}
	ds, err := fetch(c.max)
	c.round, c.msgs, c.ends, c.stored = ds, c.msgs[:0], c.ends[:0], c.stored[:0]
	if err != nil || len(ds) == 0 {
		return nil, nil, err
	}
	for _, d := range ds {
		c.msgs = append(c.msgs, d.Msg)
	}
	c.ends = batchRuns(c.ends, ds)
	for lo, i := 0, 0; i < len(c.ends); lo, i = c.ends[i], i+1 {
		c.stored = append(c.stored, ds[lo].Body)
	}
	return c.msgs, c.ends, nil
}

// idleWait bounds one sleep of an idle cursor. It is not a poll interval:
// an append, a due redelivery or Close ends the sleep at once, and the
// bound only keeps a missed wake-up from being fatal.
const idleWait = time.Second

// take is Next for the wall-clock loops: it sleeps on the stream until a
// round is ready, and lingers up to linger for a partial one to fill; !ok
// means the consumer was closed or replaced.
func (c *Cursor) take() ([]streams.Message, []int, [][]byte, bool) {
	for {
		if c.linger > 0 && c.cons.Wait(c.max, c.linger) != nil {
			return nil, nil, nil, false
		}
		msgs, ends, err := c.Next()
		if err != nil {
			return nil, nil, nil, false
		}
		if len(msgs) > 0 {
			return msgs, ends, c.stored, true
		}
		if c.cons.Wait(1, idleWait) != nil {
			return nil, nil, nil, false
		}
	}
}

// batchRuns appends to ends the exclusive end of each run of ds that was
// stored as one batch; messages stored alone run together. Cutting a
// round there, not where a fetch happened to stop, keeps each stored
// batch whole downstream: the uplink sends one frame per run, which the
// next daemon stores as one batch again, and the store hop commits one
// log record per run. Batched input is thus encoded in the same batches
// at every hop, so what a record costs on disk does not depend on timing.
func batchRuns(ends []int, ds []streams.Delivery) []int {
	for i := 1; i < len(ds); i++ {
		if ds[i].Batch != ds[i-1].Batch {
			ends = append(ends, i)
		}
	}
	return append(ends, len(ds))
}

// Settle acks the round's first n deliveries with one batch ack — one
// floor advance, one cursor checkpoint — and naks the rest for immediate
// redelivery.
func (c *Cursor) Settle(n int) {
	if n > 0 {
		// A failed ack means the consumer was closed under us; the next
		// Fetch ends the loop and the successor redelivers.
		_ = c.cons.AckBatch(c.round[:n])
	}
	// A nak hands a delivery back without burning a dial attempt (or a
	// store retry) per message.
	for _, d := range c.round[n:] {
		_ = c.cons.Nak(d.Seq)
	}
	c.round = nil
}

// Commit stores the round Next returned as one store.StoreRound per batch
// run — a whole stored batch as its body, when the cursor fetches bodies —
// each tagged with the run's highest stream sequence, and settles
// it: the runs stored are acked, the rest naked. It returns nil when the
// whole round is stored; an error wrapping dsos.ErrNothingWritten when a
// run was refused before any of it was written, so the naked rest can
// simply be retried; or, when a run failed after part of it was written,
// an error naming the run — only a restart, cutting each shard log back
// to the ack floor, discards that part exactly.
func (c *Cursor) Commit(store RoundStore, dead func(error)) error {
	stored := 0
	var token uint64
	var err error
	for i, end := range c.ends {
		token = 0
		for _, d := range c.round[stored:end] {
			token = max(token, d.Seq)
		}
		if err = store.StoreRound(Run{Msgs: c.msgs[stored:end], Body: c.stored[i]}, token, dead); err != nil {
			break
		}
		stored = end
	}
	c.Settle(stored)
	if err != nil && !errors.Is(err, dsos.ErrNothingWritten) {
		return fmt.Errorf("ldms: ingest run through seq %d partly stored: %w", token, err)
	}
	return err
}

func (c *Cursor) settle(sent bool) {
	n := 0
	if sent {
		n = len(c.round)
	}
	c.Settle(n)
}

func (c *Cursor) stop() { c.cons.Close() }

func (c *Cursor) drained() bool {
	cs := c.cons.Stats()
	return cs.Lag == 0 && cs.Inflight == 0
}

func (c *Cursor) stats(st *UplinkStats) {
	st.Consumer = c.cons.Stats()
	st.Naks = st.Consumer.Naks
}
