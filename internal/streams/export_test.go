package streams

import (
	"io"

	"darshanldms/internal/sos"
)

// AppendFrame writes body to st as one framed segment record: tests build
// segments record by record with it.
func AppendFrame(st io.Writer, body []byte) error {
	var f sos.Frame
	return f.Commit(st, append(f.Begin(), body...))
}

// SetCompactFloor sets the dead prefix a compaction needs, and returns
// the function that puts the constant back.
func SetCompactFloor(n int64) (restore func()) {
	old := compactFloor
	compactFloor = n
	return func() { compactFloor = old }
}

// windowStats is st without what depends on the segment's layout rather
// than on the window: two streams holding the same messages, floors and
// drops compare equal under it whatever their segments look like.
func windowStats(st StreamStats) StreamStats {
	st.SegmentBytes, st.Rewritten = 0, 0
	return st
}
