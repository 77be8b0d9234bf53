// Package allow is a fixture for the //lint:allow directive itself. It is
// real zone (no //lint:zone directive, path outside the sim zone), so
// walltime never runs here.
package allow

import "time"

// Forwarder mimics the delivery-path API surface.
type Forwarder struct{}

// Publish delivers a message; the error reports data loss.
func (f *Forwarder) Publish(b []byte) error { return nil }

// LineUsed: a directive covers its own line and the next one.
func LineUsed(f *Forwarder, b []byte) {
	//lint:allow puberr fixture: fire-and-forget fan-out, drops are counted upstream
	f.Publish(b)
	f.Publish(b) //lint:allow puberr fixture: trailing placement
}

// FuncUsed shows that doc-comment coverage is not hotalloc's alone: the
// directive covers every line of the function, for the check it names.
//
//lint:allow puberr fixture: the whole function is a best-effort fan-out
func FuncUsed(f *Forwarder, b []byte) {
	f.Publish(b)
	f.Publish(b)
	f.Publish(b)
}

// Unused: nothing below drops an error, so the directive is dead.
func Unused(f *Forwarder, b []byte) error {
	//lint:allow puberr fixture: the error used to be dropped here // want allow
	return f.Publish(b)
}

// WrongZone: walltime runs only in the sim zone, so in this package the
// directive can never suppress anything.
func WrongZone() time.Time {
	return time.Now() //lint:allow walltime fixture: the check never runs here // want allow
}

// UnknownCheck: a misspelt check name suppresses nothing and says so.
func UnknownCheck(f *Forwarder, b []byte) {
	//lint:allow puberror fixture: misspelt check name // want allow
	f.Publish(b) // want puberr
}

// NoReason: a directive without a reason is inert, neither suppressing
// its finding nor reported as unused.
func NoReason(f *Forwarder, b []byte) {
	//lint:allow puberr
	f.Publish(b) // want puberr
}
