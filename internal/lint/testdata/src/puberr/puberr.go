// Package puberr is a known-bad fixture for the puberr check.
package puberr

// Forwarder mimics the delivery-path API surface.
type Forwarder struct{}

// Publish delivers a message; the error reports data loss.
func (f *Forwarder) Publish(b []byte) error { return nil }

// Store persists a message; the error reports data loss.
func (f *Forwarder) Store(b []byte) error { return nil }

// Ingest loads a batch; the error reports data loss.
func (f *Forwarder) Ingest(b []byte) (int, error) { return 0, nil }

// Count returns a drop count, not an error: never flagged.
func (f *Forwarder) Count(b []byte) int { return 0 }

// Insert writes to a replicated shard; the error breaks the ack contract.
func (f *Forwarder) Insert(b []byte) error { return nil }

// Append writes a WAL record; the error breaks durability.
func (f *Forwarder) Append(b []byte) error { return nil }

// Restart recovers a crashed daemon; the error leaves it empty.
func (f *Forwarder) Restart() error { return nil }

// Consumer mimics the durable-stream consumer protocol.
type Consumer struct{}

// Ack advances the durable floor; a dropped error stalls redelivery.
func (c *Consumer) Ack(seq uint64) error { return nil }

// Nak schedules redelivery; a dropped error strands the message.
func (c *Consumer) Nak(seq uint64) error { return nil }

// Fetch pulls the next batch; a dropped error looks like an empty stream.
func (c *Consumer) Fetch(n int) ([]byte, error) { return nil, nil }

// AppendStream persists a published message to the stream segment.
func (c *Consumer) AppendStream(b []byte) (uint64, error) { return 0, nil }

// AppendBatch persists a whole frame as one segment entry.
func (c *Consumer) AppendBatch(b [][]byte) (uint64, error) { return 0, nil }

// AckBatch settles a whole round; a dropped error stalls all of it.
func (c *Consumer) AckBatch(seqs []uint64) error { return nil }

// PublishBatch hands a frame to a remote peer; the error reports loss.
func (f *Forwarder) PublishBatch(b [][]byte) error { return nil }

// Bad drops delivery errors on the floor.
func Bad(f *Forwarder, c *Consumer, b []byte) {
	f.Publish(b)        // want puberr
	f.Store(b)          // want puberr
	f.Ingest(b)         // want puberr
	f.Insert(b)         // want puberr
	f.Append(b)         // want puberr
	f.Restart()         // want puberr
	c.Ack(1)            // want puberr
	c.Nak(1)            // want puberr
	c.Fetch(16)         // want puberr
	c.AppendStream(b)   // want puberr
	c.AppendBatch(nil)  // want puberr
	c.AckBatch(nil)     // want puberr
	f.PublishBatch(nil) // want puberr
}

// Good handles, visibly discards, or annotates.
func Good(f *Forwarder, c *Consumer, b []byte) error {
	if err := f.Publish(b); err != nil {
		return err
	}
	_ = f.Store(b) // explicit discard is visible in review: allowed
	f.Count(b)     // non-error result: allowed
	//lint:allow puberr fixture: fire-and-forget fan-out, drops are counted upstream
	f.Publish(b)
	if err := c.Ack(1); err != nil {
		return err
	}
	_ = c.Nak(1) // poison-message give-up, deliberately visible: allowed
	if _, err := c.AppendBatch(nil); err != nil {
		return err
	}
	_ = c.AckBatch(nil) // a closed consumer ends the loop at the next fetch: allowed
	return nil
}
