package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Scenario files are JSON documents with two YAML-flavoured conveniences:
// full-line or trailing #-comments, and //-comments. Everything else is
// strict (see the package doc), because a spec that silently ignores half
// its content is a spec that lies about what it ran. FuzzScenarioSpec
// feeds this path arbitrary bytes.

// MaxSpecBytes bounds a spec file; hostile inputs cannot make the parser
// hold more than this.
const MaxSpecBytes = 1 << 20

// maxSpecDepth bounds nesting; the deepest real spec is 4 levels.
const maxSpecDepth = 16

// ParseError is a structured parse failure (syntax, duplicate key,
// unknown field, type mismatch).
type ParseError struct {
	Msg string
}

func (e *ParseError) Error() string { return "scenario: parse: " + e.Msg }

func parseErr(format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes a scenario spec. It returns the decoded Spec without
// validating it; callers chain Validate (Load does both).
func Parse(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, parseErr("spec exceeds %d bytes", MaxSpecBytes)
	}
	w := walker{json.NewDecoder(bytes.NewReader(stripComments(data)))}
	w.dec.UseNumber()
	tok, err := w.token(0)
	if err != nil {
		return nil, err
	}
	if tok != json.Delim('{') {
		return nil, parseErr("top level must be an object")
	}
	s := new(Spec) // its objects and lists go by their key alone: "cluster", "jobs[2]"
	if err := w.object(reflect.ValueOf(s).Elem(), "spec", "", 0); err != nil {
		return nil, err
	}
	if _, err := w.dec.Token(); err != io.EOF {
		return nil, parseErr("trailing content after spec")
	}
	return s, nil
}

// Load parses and validates in one step.
func Load(data []byte) (*Spec, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// stripComments removes #- and //-comments outside string literals, so
// the remainder is plain JSON. Bytes inside strings (and escapes) pass
// through untouched.
func stripComments(data []byte) []byte {
	out := make([]byte, 0, len(data))
	inStr, esc := false, false
	for i := 0; i < len(data); i++ {
		c := data[i]
		if inStr {
			out = append(out, c)
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
			out = append(out, c)
		case c == '#', c == '/' && i+1 < len(data) && data[i+1] == '/':
			for i < len(data) && data[i] != '\n' {
				i++
			}
			if i < len(data) {
				out = append(out, '\n')
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

// walker decodes a token stream into Spec values, driven by their json
// tags. Errors name the value by its path: an object or list by its key
// path ("cluster", "arrival.periods", "jobs[2]"), any other value by the
// path of the object holding it and its key ("spec.name", "jobs[2].kind").
type walker struct{ dec *json.Decoder }

// token reads the next token of a value nested depth levels deep.
func (w walker) token(depth int) (json.Token, error) {
	if depth > maxSpecDepth {
		return nil, parseErr("nesting deeper than %d levels", maxSpecDepth)
	}
	tok, err := w.dec.Token()
	if err != nil {
		return nil, parseErr("%v", err)
	}
	return tok, nil
}

// end consumes the '}' or ']' that closes the current object or list.
func (w walker) end() error { _, err := w.token(0); return err }

// object fills struct v from the object whose '{' was just read; the
// paths of the objects and lists in it begin with prefix. A key that is
// no field's tag is an error once the object ends: its value is skipped,
// but still checked for syntax and depth.
func (w walker) object(v reflect.Value, path, prefix string, depth int) error {
	seen := map[string]bool{}
	var unknown []string
	for w.dec.More() {
		tok, err := w.token(depth + 1) // the key, at its value's depth
		if err != nil {
			return err
		}
		key, _ := tok.(string) // the decoder yields only strings as keys
		if seen[key] {
			return parseErr("duplicate key %q", key)
		}
		seen[key] = true
		if tok, err = w.token(depth + 1); err != nil {
			return err
		}
		if f, ok := field(v, key); ok {
			err = w.value(f, tok, path+"."+key, prefix+key, depth+1)
		} else {
			unknown = append(unknown, key)
			err = w.skip(tok, depth+1)
		}
		if err != nil {
			return err
		}
	}
	if err := w.end(); err != nil {
		return err
	}
	if len(unknown) > 0 {
		return parseErr("%s: unknown field %q", path, unknown[0])
	}
	return nil
}

// field returns the field of struct v whose json tag names key exactly.
func field(v reflect.Value, key string) (reflect.Value, bool) {
	for i := 0; i < v.NumField(); i++ {
		if name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ","); name == key && name != "" {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// value decodes the value that begins with tok into v. name labels a
// type error; path names v when it is an object or a list.
func (w walker) value(v reflect.Value, tok json.Token, name, path string, depth int) error {
	num, isNum := tok.(json.Number)
	switch v.Kind() {
	case reflect.Struct:
		if tok != json.Delim('{') {
			return parseErr("%s: expected an object", path)
		}
		return w.object(v, path, path+".", depth)
	case reflect.Slice:
		if tok == nil { // null is an empty list
			return nil
		}
		if tok != json.Delim('[') {
			return parseErr("%s: expected an array", name)
		}
		for i := 0; w.dec.More(); i++ {
			tok, err := w.token(depth + 1)
			if err != nil {
				return err
			}
			elem := reflect.New(v.Type().Elem()).Elem()
			at := fmt.Sprintf("%s[%d]", path, i)
			if err := w.value(elem, tok, at, at, depth+1); err != nil {
				return err
			}
			v.Set(reflect.Append(v, elem))
		}
		return w.end()
	case reflect.String:
		s, ok := tok.(string)
		if !ok {
			return parseErr("%s: expected a string", name)
		}
		v.SetString(s)
	case reflect.Float64:
		f, err := strconv.ParseFloat(string(num), 64)
		if !isNum {
			return parseErr("%s: expected a number", name)
		} else if err != nil {
			return parseErr("%s: number out of range", name)
		}
		v.SetFloat(f)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(string(num), 10, 64)
		if !isNum {
			return parseErr("%s: expected an integer", name)
		} else if err != nil || v.OverflowInt(n) {
			return parseErr("%s: expected an integer in range", name)
		}
		v.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(string(num), 10, 64)
		if !isNum {
			return parseErr("%s: expected an unsigned integer", name)
		} else if err != nil {
			return parseErr("%s: expected an unsigned integer in range", name)
		}
		v.SetUint(n)
	default:
		panic("scenario: no decoding for a spec field of type " + v.Type().String())
	}
	return nil
}

// skip consumes the value that begins with tok, an unknown field's.
func (w walker) skip(tok json.Token, depth int) error {
	if tok != json.Delim('{') && tok != json.Delim('[') {
		return nil
	}
	for w.dec.More() {
		if tok == json.Delim('{') {
			if _, err := w.token(depth + 1); err != nil { // the key
				return err
			}
		}
		next, err := w.token(depth + 1)
		if err != nil {
			return err
		}
		if err := w.skip(next, depth+1); err != nil {
			return err
		}
	}
	return w.end()
}
