package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The hand-written tree reader Parse used before it walked the Spec
// structs by their json tags, kept as the reference the differential test
// and FuzzScenarioSpec hold Parse to: the same verdict on every input, and
// the same Spec on every input both accept.

// refParse is the reference decoder: Parse as the tree reader did it.
func refParse(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, parseErr("spec exceeds %d bytes", MaxSpecBytes)
	}
	v, err := decodeTree(stripComments(data))
	if err != nil {
		return nil, err
	}
	obj, ok := v.(*jsonObject)
	if !ok {
		return nil, parseErr("top level must be an object")
	}
	return specFromTree(obj)
}

// jsonObject is an order-preserving object with duplicate-key rejection
// built during decoding.
type jsonObject struct {
	keys []string
	vals map[string]any
}

// decodeTree token-decodes one JSON value with depth and duplicate-key
// checks, and rejects trailing content.
func decodeTree(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := decodeValue(dec, 0)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, parseErr("trailing content after spec")
	}
	return v, nil
}

func decodeValue(dec *json.Decoder, depth int) (any, error) {
	if depth > maxSpecDepth {
		return nil, parseErr("nesting deeper than %d levels", maxSpecDepth)
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, parseErr("%v", err)
	}
	return decodeFromToken(dec, tok, depth)
}

func decodeFromToken(dec *json.Decoder, tok json.Token, depth int) (any, error) {
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			obj := &jsonObject{vals: map[string]any{}}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, parseErr("%v", err)
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, parseErr("object key must be a string")
				}
				if _, dup := obj.vals[key]; dup {
					return nil, parseErr("duplicate key %q", key)
				}
				val, err := decodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				obj.keys = append(obj.keys, key)
				obj.vals[key] = val
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, parseErr("%v", err)
			}
			return obj, nil
		case '[':
			var arr []any
			for dec.More() {
				val, err := decodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				arr = append(arr, val)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, parseErr("%v", err)
			}
			return arr, nil
		}
		return nil, parseErr("unexpected delimiter %v", t)
	default:
		return tok, nil // string, json.Number, bool, nil
	}
}

// field accessors — each checks type and records consumption so unknown
// fields can be reported.

type objReader struct {
	path string
	obj  *jsonObject
	seen map[string]bool
	err  error
}

func newObjReader(path string, v any) (*objReader, error) {
	obj, ok := v.(*jsonObject)
	if !ok {
		return nil, parseErr("%s: expected an object", path)
	}
	return &objReader{path: path, obj: obj, seen: map[string]bool{}}, nil
}

func (o *objReader) fail(key, format string, args ...any) {
	if o.err == nil {
		o.err = parseErr("%s.%s: %s", o.path, key, fmt.Sprintf(format, args...))
	}
}

func (o *objReader) get(key string) (any, bool) {
	o.seen[key] = true
	v, ok := o.obj.vals[key]
	return v, ok
}

func (o *objReader) str(key string) string {
	v, ok := o.get(key)
	if !ok {
		return ""
	}
	s, isStr := v.(string)
	if !isStr {
		o.fail(key, "expected a string")
		return ""
	}
	return s
}

func (o *objReader) float(key string) float64 {
	v, ok := o.get(key)
	if !ok {
		return 0
	}
	num, isNum := v.(json.Number)
	if !isNum {
		o.fail(key, "expected a number")
		return 0
	}
	f, err := strconv.ParseFloat(num.String(), 64)
	if err != nil {
		o.fail(key, "number out of range")
		return 0
	}
	return f
}

func (o *objReader) integer(key string) int {
	v, ok := o.get(key)
	if !ok {
		return 0
	}
	num, isNum := v.(json.Number)
	if !isNum {
		o.fail(key, "expected an integer")
		return 0
	}
	n, err := strconv.ParseInt(num.String(), 10, 64)
	if err != nil || int64(int(n)) != n {
		o.fail(key, "expected an integer in range")
		return 0
	}
	return int(n)
}

func (o *objReader) int64Field(key string) int64 {
	v, ok := o.get(key)
	if !ok {
		return 0
	}
	num, isNum := v.(json.Number)
	if !isNum {
		o.fail(key, "expected an integer")
		return 0
	}
	n, err := strconv.ParseInt(num.String(), 10, 64)
	if err != nil {
		o.fail(key, "expected an integer in range")
		return 0
	}
	return n
}

func (o *objReader) uint64Field(key string) uint64 {
	v, ok := o.get(key)
	if !ok {
		return 0
	}
	num, isNum := v.(json.Number)
	if !isNum {
		o.fail(key, "expected an unsigned integer")
		return 0
	}
	n, err := strconv.ParseUint(num.String(), 10, 64)
	if err != nil {
		o.fail(key, "expected an unsigned integer in range")
		return 0
	}
	return n
}

func (o *objReader) array(key string) []any {
	v, ok := o.get(key)
	if !ok {
		return nil
	}
	arr, isArr := v.([]any)
	if !isArr && v != nil {
		o.fail(key, "expected an array")
		return nil
	}
	return arr
}

// finish errors on any key the reader never consumed (unknown fields).
func (o *objReader) finish() error {
	if o.err != nil {
		return o.err
	}
	for _, k := range o.obj.keys {
		if !o.seen[k] {
			return parseErr("%s: unknown field %q", o.path, k)
		}
	}
	return nil
}

func specFromTree(obj *jsonObject) (*Spec, error) {
	o := &objReader{path: "spec", obj: obj, seen: map[string]bool{}}
	s := &Spec{
		Name:     o.str("name"),
		Seed:     o.uint64Field("seed"),
		HorizonS: o.float("horizon_s"),
		FS:       o.str("fs"),
	}
	if v, ok := o.get("cluster"); ok {
		c, err := newObjReader("cluster", v)
		if err != nil {
			return nil, err
		}
		s.Cluster = ClusterSpec{
			Nodes:        c.integer("nodes"),
			RanksPerNode: c.integer("ranks_per_node"),
		}
		if err := c.finish(); err != nil {
			return nil, err
		}
	}
	if v, ok := o.get("arrival"); ok {
		a, err := newObjReader("arrival", v)
		if err != nil {
			return nil, err
		}
		s.Arrival = ArrivalSpec{
			Kind:         a.str("kind"),
			RatePerS:     a.float("rate_per_s"),
			BurstEveryS:  a.float("burst_every_s"),
			BurstSize:    a.integer("burst_size"),
			BurstJitterS: a.float("burst_jitter_s"),
			MaxJobs:      a.integer("max_jobs"),
		}
		for i, pv := range a.array("periods") {
			p, err := newObjReader(fmt.Sprintf("arrival.periods[%d]", i), pv)
			if err != nil {
				return nil, err
			}
			s.Arrival.Periods = append(s.Arrival.Periods, PeriodSpec{
				PeriodS:   p.float("period_s"),
				Amplitude: p.float("amplitude"),
			})
			if err := p.finish(); err != nil {
				return nil, err
			}
		}
		if err := a.finish(); err != nil {
			return nil, err
		}
	}
	if v, ok := o.get("pipeline"); ok {
		p, err := newObjReader("pipeline", v)
		if err != nil {
			return nil, err
		}
		s.Pipeline = PipelineSpec{
			UplinkRatePerS:  p.float("uplink_rate_per_s"),
			NodeLatencyUS:   p.float("node_latency_us"),
			UplinkLatencyUS: p.float("uplink_latency_us"),
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
	}
	for i, jv := range o.array("jobs") {
		j, err := newObjReader(fmt.Sprintf("jobs[%d]", i), jv)
		if err != nil {
			return nil, err
		}
		s.Jobs = append(s.Jobs, JobSpec{
			Kind:         j.str("kind"),
			Weight:       j.float("weight"),
			Nodes:        j.integer("nodes"),
			RanksPerNode: j.integer("ranks_per_node"),
			BytesPerRank: j.int64Field("bytes_per_rank"),
			BlockBytes:   j.int64Field("block_bytes"),
			Iterations:   j.integer("iterations"),
			FilesPerRank: j.integer("files_per_rank"),
			FileBytes:    j.int64Field("file_bytes"),
			Trace:        j.str("trace"),
			Speedup:      j.float("speedup"),
		})
		if err := j.finish(); err != nil {
			return nil, err
		}
	}
	if v, ok := o.get("faults"); ok {
		f, err := newObjReader("faults", v)
		if err != nil {
			return nil, err
		}
		s.Faults.RandomEvents = f.integer("random_events")
		for i, ev := range f.array("events") {
			e, err := newObjReader(fmt.Sprintf("faults.events[%d]", i), ev)
			if err != nil {
				return nil, err
			}
			s.Faults.Events = append(s.Faults.Events, FaultEventSpec{
				Kind:    e.str("kind"),
				Target:  e.str("target"),
				AtFrac:  e.float("at_frac"),
				DurFrac: e.float("dur_frac"),
				ExtraMS: e.float("extra_ms"),
			})
			if err := e.finish(); err != nil {
				return nil, err
			}
		}
		if err := f.finish(); err != nil {
			return nil, err
		}
	}
	if err := o.finish(); err != nil {
		return nil, err
	}
	return s, nil
}
