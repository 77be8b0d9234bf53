package dsos

// HoldAfterPlan makes the client's inserts call hold between their plan
// and their first share write, with the insert barrier's read side held
// (nil: no hold). An insert that finds the client's scratch taken by a
// concurrent one brings its own batch and does not hold.
func HoldAfterPlan(cl *Client, hold func()) { cl.scratch.hold = hold }
