package ldms

import "darshanldms/internal/streams"

// ingestRound bounds one fetch of the store hop.
const ingestRound = 64

// IngestStream is the store hop of a durable daemon (cmd/dsosd): it
// drains cons into store until the consumer is closed or replaced,
// sleeping on the stream while there is nothing to deliver. A round
// shares one fetch and one decode pass, but each message is settled on
// its own — stored, then acked, the ack checkpointing the cursor — and a
// failed store naks exactly that message for redelivery (onErr sees the
// error). The per-message ack is deliberate: dedup identity lives in
// memory and stored rows carry no (producer, seq), so after a kill -9 the
// only record of what was stored is the durable cursor. Acking a whole
// inserted round at once would widen the window in which a crash stores
// a message twice from one message to the round; pair store with a
// DedupStore and the window stays one message wide.
func IngestStream(cons *streams.Consumer, store StorePlugin, onErr func(error)) {
	for {
		ds, err := cons.Fetch(ingestRound)
		if err != nil {
			return
		}
		if len(ds) == 0 {
			if cons.Wait(idleWait) != nil {
				return
			}
			continue
		}
		for _, d := range ds {
			if serr := store.Store(d.Msg); serr != nil {
				_ = cons.Nak(d.Seq) // a closed consumer ends the loop at the next Fetch
				onErr(serr)
			} else if cons.Ack(d.Seq) != nil {
				return
			}
		}
	}
}
