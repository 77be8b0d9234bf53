package ldms

import (
	"errors"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/streams"
)

// refusedWait spaces the retries of a round the store refused whole, so
// an owner that stays down costs a retry per interval, not a spin.
const refusedWait = 10 * time.Millisecond

// RoundStore is a StorePlugin that can also settle a whole ingest round as
// one commit.
type RoundStore interface {
	StorePlugin
	// StoreRound stores ms as one commit tagged token, the highest stream
	// sequence in the round. A message the store cannot decode is reported
	// to dead and settled with the round. An error wrapping
	// dsos.ErrNothingWritten means nothing of the round was stored.
	StoreRound(ms []streams.Message, token uint64, dead func(error)) error
}

// IngestStream is the store hop of a durable daemon (cmd/dsosd): it
// drains cons into store until the consumer is closed or replaced,
// sleeping on the stream while there is nothing to deliver. Each fetched
// round (at most RoundSize messages) is one commit per batch run in it:
// store.StoreRound inserts the fresh rows of each of its batch runs (a
// stored batch, or messages stored alone; see batchRuns) tagged with the
// run's token — one log record and one write per shard the run touches —
// and one AckBatch then settles the round with one cursor checkpoint.
//
// The consumer's durable ack floor is thereby the commit point: every
// shard log record tagged at or below it belongs to a settled run, and a
// restart replays each log only up to the floor (dsos.Daemon.RecoverWAL)
// and lets the stream redeliver the rest. A kill -9 anywhere in a round
// costs neither a row nor a duplicate.
//
// A message the store cannot decode is dead-lettered (onErr sees it) and
// acked with its round. A run the store refused before writing any of it
// (dsos.ErrNothingWritten — an owner down under an every-owner ack rule)
// is naked with the rest of its round and retried, the runs before it
// acked; onErr sees the refusal. A run that failed after part of it was
// written is naked with the rest of its round and ends the loop with the
// error: only a restart can discard a partial run, and it does so
// exactly. IngestStream returns nil when the consumer is closed.
func IngestStream(cons *streams.Consumer, store RoundStore, onErr func(error)) error {
	c := NewCursor(cons, RoundSize)
	for {
		if _, _, ok := c.take(); !ok {
			return nil
		}
		switch err := c.Commit(store, onErr); {
		case err == nil:
		case errors.Is(err, dsos.ErrNothingWritten):
			onErr(err)
			time.Sleep(refusedWait)
		default:
			return err
		}
	}
}
