package model

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// marshalPayload returns json.Marshal(v), byte for byte, for the
// payload structs of kinds.go. json.Marshal builds its output in a
// scratch buffer that it keeps in encoding/json's process-wide pool,
// which every later json.Marshal in the process (each served reply)
// takes from and returns to: a payload-sized buffer then stays live for
// as long as the traffic happens to keep cycling it, a time that
// differs from run to run. marshalPayload keeps its scratch in a pool
// of its own that only payload encoding uses, so a process that
// re-encodes models (stream.Run, each refresh) reuses one buffer, and a
// process that stops encoding lets it go within two GC cycles.
//
// It covers what the payload structs use: structs of tagged exported
// fields (with omitempty), pointers, slices, arrays, float64, int, bool
// and string. Any other type is an error, not a guess.
func marshalPayload(v any) ([]byte, error) {
	scratch := payloadScratch.Get().(*[]byte)
	defer payloadScratch.Put(scratch)
	b, err := appendJSON((*scratch)[:0], reflect.ValueOf(v))
	if err != nil {
		return nil, err
	}
	*scratch = b
	// An exact-size copy, as json.Marshal returns: the artifact keeps it.
	return append([]byte(nil), b...), nil
}

// payloadScratch is marshalPayload's pool of scratch buffers.
var payloadScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends v as json.Marshal encodes it.
func appendJSON(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Float64:
		return appendFloat(b, v)
	case reflect.Int:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.String:
		// Strings are short labels; json.Marshal escapes them.
		s, err := json.Marshal(v.String())
		return append(b, s...), err
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendJSON(b, v.Elem())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			break // json.Marshal writes []byte as base64
		}
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		fallthrough
	case reflect.Array:
		b = append(b, '[')
		for i := range v.Len() {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSON(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(b, ']'), nil
	case reflect.Struct:
		return appendStruct(b, v)
	}
	return nil, fmt.Errorf("model: payload encoder does not handle %s", v.Type())
}

// appendStruct writes v's exported fields in declaration order under
// their json tag names, skipping a field tagged "-" and an omitempty
// field whose value is empty, as json.Marshal does.
func appendStruct(b []byte, v reflect.Value) ([]byte, error) {
	t := v.Type()
	b = append(b, '{')
	first := true
	for i := range t.NumField() {
		f := t.Field(i)
		if f.Anonymous {
			return nil, fmt.Errorf("model: payload encoder does not handle embedded field %s.%s", t, f.Name)
		}
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if opts != "" && opts != "omitempty" {
			return nil, fmt.Errorf("model: payload encoder does not handle tag option %q on %s.%s", opts, t, f.Name)
		}
		if name == "" {
			name = f.Name
		}
		if !plainName(name) {
			return nil, fmt.Errorf("model: payload encoder does not handle field name %q on %s.%s", name, t, f.Name)
		}
		fv := v.Field(i)
		if opts == "omitempty" && isEmptyJSON(fv) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(append(append(b, '"'), name...), '"', ':')
		var err error
		if b, err = appendJSON(b, fv); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// plainName reports whether a field name is letters, digits and
// underscores, which json.Marshal writes quoted and unescaped.
func plainName(s string) bool {
	for _, c := range s {
		if c != '_' && !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return true
}

// isEmptyJSON is encoding/json's omitempty test.
func isEmptyJSON(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool, reflect.Int, reflect.Float64, reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}

// appendFloat writes a float64 as encoding/json does: the shortest
// representation that round-trips, in 'f' format unless the magnitude
// is below 1e-6 or at least 1e21, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07). NaN and ±Inf are json.Marshal's error.
func appendFloat(b []byte, v reflect.Value) ([]byte, error) {
	f := v.Float()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: v, Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
