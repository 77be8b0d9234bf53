package streams

// DecodeRecords is the heap reference decoder of a batch body (as laid
// out by AppendRecords): freshly allocated messages, typed records as the
// registered codec's carriers, opaque payloads aliasing body.
func DecodeRecords(body []byte) ([]Message, error) {
	r := NewRecordWalker(body)
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	out := make([]Message, 0, n)
	var prev Message
	for i := 0; i < n; i++ {
		m, _, err := r.record(&prev)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		prev = m
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
