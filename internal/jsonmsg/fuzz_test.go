package jsonmsg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse hardens the store-side JSON parser against arbitrary stream
// payloads: a malformed message must error, never panic, and a valid
// encoder output must round-trip.
func FuzzParse(f *testing.F) {
	m := sampleMsg()
	f.Add(FastEncoder{}.Encode(&m))
	f.Add(SprintfEncoder{}.Encode(&m))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"uid":"not-a-number"}`))
	f.Add([]byte(`{"seg":[{}]}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Parse(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

// FuzzEncodeParse: any message content (including hostile strings) must
// encode to valid JSON that parses back to the same scalar fields, and
// both encoders must write Table's keys in Table's order, each with a
// value of its column's kind.
func FuzzEncodeParse(f *testing.F) {
	f.Add("POSIX", "/nscratch/a", int64(1), int64(2), 3.5)
	f.Add(`"quoted"`, "back\\slash", int64(-1), int64(0), -0.0)
	f.Add("\x00\x01控制", "newline\nhere", int64(1<<62), int64(-1<<62), 1e300)
	f.Fuzz(func(t *testing.T, module, file string, uid, length int64, dur float64) {
		m := sampleMsg()
		m.Module, m.File, m.UID = module, file, uid
		m.Seg[0].Len, m.Seg[0].Dur = length, dur
		out := FastEncoder{}.Encode(&m)
		for _, enc := range []Encoder{FastEncoder{}, SprintfEncoder{}} {
			if err := checkLayout(enc.Encode(&m), len(m.Seg)); err != nil {
				t.Fatalf("%s encoder: %v", enc.Name(), err)
			}
		}
		got, err := Parse(out)
		if err != nil {
			t.Fatalf("encoder produced unparseable JSON for %q %q: %v", module, file, err)
		}
		// Invalid UTF-8 is sanitized to U+FFFD at encode time (as
		// encoding/json does), so compare against the sanitized input.
		wantModule := strings.ToValidUTF8(module, "�")
		wantFile := strings.ToValidUTF8(file, "�")
		if got.Module != wantModule || got.File != wantFile || got.UID != uid || got.Seg[0].Len != length {
			t.Fatalf("round trip mismatch: %q/%q vs %q/%q", got.Module, got.File, wantModule, wantFile)
		}
	})
}

// checkLayout reads an encoded message token by token: Table's message
// columns in order, then "seg" holding nseg objects of its seg columns in
// order, every value of its column's kind, and nothing else.
func checkLayout(data []byte, nseg int) error {
	d := json.NewDecoder(bytes.NewReader(data))
	d.UseNumber()
	next := func(want string) error {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		if got := fmt.Sprint(tok); got != want {
			return fmt.Errorf("got %q, want %q", got, want)
		}
		return nil
	}
	columns := func(seg bool) error {
		if err := next("{"); err != nil {
			return err
		}
		for i := range Table {
			c := &Table[i]
			if c.Seg != seg {
				continue
			}
			if err := next(c.Key); err != nil {
				return err
			}
			tok, err := d.Token()
			if err != nil {
				return err
			}
			if err := checkKind(c, tok); err != nil {
				return fmt.Errorf("%s: %v", c.Key, err)
			}
		}
		return nil
	}
	if err := columns(false); err != nil {
		return err
	}
	if err := next("seg"); err != nil {
		return err
	}
	if err := next("["); err != nil {
		return err
	}
	for i := 0; i < nseg; i++ {
		if err := columns(true); err != nil {
			return err
		}
		if err := next("}"); err != nil {
			return err
		}
	}
	for _, want := range []string{"]", "}"} {
		if err := next(want); err != nil {
			return err
		}
	}
	if d.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// checkKind reports whether a value token is of column c's kind.
func checkKind(c *Column, tok json.Token) error {
	if c.Kind == KindString {
		if _, ok := tok.(string); !ok {
			return fmt.Errorf("%v is not a string", tok)
		}
		return nil
	}
	n, ok := tok.(json.Number)
	if !ok {
		return fmt.Errorf("%v is not a number", tok)
	}
	var err error
	switch c.Kind {
	case KindInt:
		_, err = strconv.ParseInt(n.String(), 10, 64)
	case KindUint:
		_, err = strconv.ParseUint(n.String(), 10, 64)
	case KindFloat:
		if i := strings.IndexByte(n.String(), '.'); i < 0 || len(n.String())-i-1 != 6 {
			err = fmt.Errorf("%s does not have six decimals", n)
		}
	}
	return err
}
