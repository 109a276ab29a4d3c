package harness

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// The compact reader decodes the bytes json.Marshal writes for a JobResult
// (EncodeJobResult's payloads) without encoding/json. It accepts only input
// that json.Unmarshal decodes into a fresh JobResult without error and to
// the same value; DecodeJobResult hands everything else to json.Unmarshal.

// step reads one value of kind Struct, String, Int, Int64, Float64, or Slice
// for []int64 and []float64. A struct's steps are its fields, all of them in
// order, so step k reads field k.
type step struct {
	key    string // `"name":` as json.Marshal writes it in the parent struct, after a ',' from its second field on
	kind   reflect.Kind
	fields []step
}

// codecTypes are the interfaces through which a type writes or reads its
// own JSON form, which a layout cannot mirror.
var codecTypes = []reflect.Type{
	reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// resultLayout is JobResult's layout. Every decode goes to json.Unmarshal
// when building it reported a field the reader cannot mirror;
// TestResultLayoutComplete fails on that report.
var resultLayout, resultLayoutErr = layoutOf(reflect.TypeFor[JobResult](), "JobResult")

// layoutOf returns the step that reads a value of type t, which reports name
// path. It reports every field whose json.Marshal form the reader cannot
// mirror exactly: an unexported or embedded field, a json tag with an
// option or "-", a key other than ASCII letters, digits and '_', a key used
// twice, a type with its own JSON or text codec, and any type but a struct,
// string, int, int64, float64, []int64 or []float64.
func layoutOf(t reflect.Type, path string) (step, error) {
	s := step{kind: t.Kind()}
	switch k := s.kind; {
	case hasCodec(t):
		return s, fmt.Errorf("%s: %s has its own JSON or text codec", path, t)
	case t == reflect.TypeFor[[]int64](), t == reflect.TypeFor[[]float64](),
		k == reflect.String, k == reflect.Int, k == reflect.Int64, k == reflect.Float64:
		return s, nil
	case k != reflect.Struct:
		return s, fmt.Errorf("%s: %s is not a type the reader reads", path, t)
	}
	var errs []error
	seen := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := path + "." + f.Name
		tag, key := f.Tag.Get("json"), f.Name
		if tag != "" {
			key = tag
		}
		switch {
		case !f.IsExported() || f.Anonymous:
			errs = append(errs, fmt.Errorf("%s: unexported or embedded field", name))
		case tag == "-" || strings.Contains(tag, ","):
			errs = append(errs, fmt.Errorf("%s: json tag %q", name, tag))
		case strings.Trim(key, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_") != "" || seen[key]:
			errs = append(errs, fmt.Errorf("%s: key %q is not plain or is used twice", name, key))
		}
		seen[key] = true
		fs, err := layoutOf(f.Type, name)
		fs.key = `"` + key + `":`
		if i > 0 {
			fs.key = "," + fs.key
		}
		s.fields = append(s.fields, fs)
		errs = append(errs, err)
	}
	return s, errors.Join(errs...) // nil when every error is
}

func hasCodec(t reflect.Type) bool {
	for _, c := range codecTypes {
		if t.Implements(c) || reflect.PointerTo(t).Implements(c) {
			return true
		}
	}
	return false
}

// readCompact decodes payload into *dst, which must be a zero JobResult,
// and reports whether payload was in the compact form. On false *dst holds
// whatever was read before the reader refused.
func readCompact(payload []byte, dst *JobResult) bool {
	if resultLayoutErr != nil {
		return false
	}
	r := compactReader{b: payload}
	return r.value(reflect.ValueOf(dst).Elem(), &resultLayout) && r.i == len(payload)
}

// compactReader is one decode's position in its payload. Each decode has
// its own; the layout it follows is never written once built.
type compactReader struct {
	b []byte
	i int
}

func (r *compactReader) lit(s string) bool {
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// object reads a struct with every field of its layout, in order, into v.
func (r *compactReader) object(v reflect.Value, fields []step) bool {
	if !r.lit("{") {
		return false
	}
	for k := range fields {
		if !r.lit(fields[k].key) || !r.value(v.Field(k), &fields[k]) {
			return false
		}
	}
	return r.lit("}")
}

func (r *compactReader) value(v reflect.Value, s *step) bool {
	switch s.kind {
	case reflect.Struct:
		return r.object(v, s.fields)
	case reflect.String:
		str, ok := r.str()
		v.SetString(str)
		return ok
	case reflect.Int, reflect.Int64:
		n, ok := parseInt64(r.number())
		v.SetInt(n)
		return ok && !v.OverflowInt(n)
	case reflect.Float64:
		x, ok := parseFloat(r.number())
		v.SetFloat(x)
		return ok
	}
	if p, ok := v.Addr().Interface().(*[]int64); ok {
		return readSlice(r, p, parseInt64)
	}
	return readSlice(r, v.Addr().Interface().(*[]float64), parseFloat)
}

// str reads a string of printable ASCII with no quote or backslash in it.
// Escapes, control bytes and non-ASCII bytes, which encoding/json may
// rewrite, are refused.
func (r *compactReader) str() (string, bool) {
	if !r.lit(`"`) {
		return "", false
	}
	for j := r.i; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			s := string(r.b[r.i:j])
			r.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// number reads a number in the JSON grammar, and reports whether it has no
// fraction and no exponent. Where there is none it returns nil, which no
// parse accepts.
func (r *compactReader) number() (num []byte, integer bool) {
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return nil, false // no integer part, or a leading zero
	}
	i, integer = j, true
	if i < len(b) && b[i] == '.' {
		if j = digits(b, i+1); j == i+1 {
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			return nil, false
		}
		i, integer = j, false
	}
	num, r.i = b[r.i:i], i
	return num, integer
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt64 parses an integer exactly, as encoding/json does before its
// range check.
func parseInt64(num []byte, integer bool) (int64, bool) {
	if !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	return n, err == nil
}

// parseFloat parses a float64 with the call encoding/json makes.
func parseFloat(num []byte, _ bool) (float64, bool) {
	x, err := strconv.ParseFloat(string(num), 64)
	return x, err == nil
}

// readSlice reads null, which leaves *dst nil, or an array of numbers that
// parse converts; [] gives an empty slice that is not nil, as in
// encoding/json.
func readSlice[T any](r *compactReader, dst *[]T, parse func(num []byte, integer bool) (T, bool)) bool {
	if r.lit("null") {
		*dst = nil
		return true
	}
	if !r.lit("[") {
		return false
	}
	if r.lit("]") {
		*dst = []T{}
		return true
	}
	end := bytes.IndexByte(r.b[r.i:], ']')
	if end < 0 {
		return false
	}
	s := make([]T, 0, 1+bytes.Count(r.b[r.i:r.i+end], []byte{','}))
	for {
		x, ok := parse(r.number())
		if !ok {
			return false
		}
		s = append(s, x)
		if r.lit("]") {
			*dst = s
			return true
		}
		if !r.lit(",") {
			return false
		}
	}
}
