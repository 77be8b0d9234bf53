// Package ackleak is a known-bad fixture for the ackleak check.
package ackleak

// Msg mimics streams.Message.
type Msg struct{ ID string }

// Delivery mimics streams.Delivery: one inflight message plus its
// redelivery cursor.
type Delivery struct {
	Seq uint64
	Msg Msg
}

// Consumer mimics the pull-based streams.Consumer.
type Consumer struct{}

func (c *Consumer) Fetch(n int) ([]Delivery, error) { return nil, nil }
func (c *Consumer) Ack(seq uint64) error            { return nil }
func (c *Consumer) Nak(seq uint64) error            { return nil }
func (c *Consumer) AckBatch(ds []Delivery) error    { return nil }

// Drop reads the payloads and never settles: the deliveries sit
// inflight until the ack deadline and redeliver.
func Drop(c *Consumer, sink func(Msg)) {
	ds, err := c.Fetch(8) // want ackleak
	if err != nil {
		return
	}
	for _, d := range ds {
		sink(d.Msg)
	}
}

// DropNoGuard fetches and walks away.
func DropNoGuard(c *Consumer) {
	ds, _ := c.Fetch(4) // want ackleak
	_ = ds
}

// DropFailedRound batch-acks the round it sent and forgets the one it
// could not send: that round is neither acked nor naked.
func DropFailedRound(c *Consumer, sent bool) {
	ds, err := c.Fetch(8) // want ackleak
	if err != nil {
		return
	}
	if sent {
		_ = c.AckBatch(ds)
	}
}

// GoodBatchAck settles the round either way: one batch ack, or a nak
// per delivery.
func GoodBatchAck(c *Consumer, sent bool) {
	ds, err := c.Fetch(8)
	if err != nil {
		return
	}
	if sent {
		_ = c.AckBatch(ds)
		return
	}
	for _, d := range ds {
		_ = c.Nak(d.Seq)
	}
}

// GoodAckLoop settles every delivery (the empty-fetch case has nothing
// to settle, so the loop covers the zero-iteration path too).
func GoodAckLoop(c *Consumer) {
	ds, err := c.Fetch(8)
	if err != nil {
		return
	}
	for _, d := range ds {
		if d.Seq%2 == 0 {
			_ = c.Ack(d.Seq)
		} else {
			_ = c.Nak(d.Seq)
		}
	}
}

// GoodGuardChain: the ||-chain guard holds no deliveries on its true
// edge, and the loop settles them on the false edge.
func GoodGuardChain(c *Consumer) {
	ds, err := c.Fetch(8)
	if err != nil || len(ds) == 0 {
		return
	}
	for _, d := range ds {
		_ = c.Ack(d.Seq)
	}
}

// GoodHelperSettle hands each delivery's fate to a helper by Seq.
func GoodHelperSettle(c *Consumer, requeue func(uint64)) {
	ds, err := c.Fetch(8)
	if err != nil {
		return
	}
	for i := range ds {
		d := ds[i]
		requeue(d.Seq)
	}
}

// GoodBatchHandoff passes the whole batch on: the callee inherits the
// obligation.
func GoodBatchHandoff(c *Consumer, process func([]Delivery)) {
	ds, err := c.Fetch(8)
	if err != nil {
		return
	}
	process(ds)
}

// GoodReturn transfers the obligation to the caller.
func GoodReturn(c *Consumer) ([]Delivery, error) {
	return c.Fetch(8)
}

// Suppressed is an acknowledged drop (e.g. a drain-and-discard test).
func Suppressed(c *Consumer) {
	ds, _ := c.Fetch(1) //lint:allow ackleak fixture: deliberate drain, redelivery is the point
	_ = ds
}
