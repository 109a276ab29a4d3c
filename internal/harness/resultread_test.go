package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// setLeaves walks v depth first and calls set on every field that is not a
// struct, and on every element of a slice set has filled.
func setLeaves(v reflect.Value, set func(reflect.Value)) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			setLeaves(v.Field(i), set)
		}
		return
	}
	set(v)
	if v.Kind() == reflect.Slice {
		for k := 0; k < v.Len(); k++ {
			set(v.Index(k))
		}
	}
}

// synthetic builds a result whose numbers come, in walk order, from ints and
// floats (cycled, starting at offset), whose strings are scheme and whose
// slices have n elements, or are nil for n < 0.
func synthetic(offset int, ints []int64, floats []float64, scheme string, n int) JobResult {
	var r JobResult
	k := offset
	setLeaves(reflect.ValueOf(&r).Elem(), func(v reflect.Value) {
		k++
		switch v.Kind() {
		case reflect.String:
			v.SetString(scheme)
		case reflect.Int, reflect.Int64:
			v.SetInt(ints[k%len(ints)])
		case reflect.Float64:
			v.SetFloat(floats[k%len(floats)])
		case reflect.Slice:
			if n >= 0 {
				v.Set(reflect.MakeSlice(v.Type(), n, n))
			}
		}
	})
	return r
}

// realResults runs, with no store, the phases of a few cheap experiments
// that between them set every kind of result field: fig5's numasim jobs,
// the first two phases of max-qps (a closed-loop run and an open-loop probe
// with its latency report) and both phases of fault-sweep (every scheme
// clean and then under a chaos plan, which sets the fault fields).
func realResults(t testing.TB) []JobResult {
	t.Helper()
	r := NewRunner(2)
	var out []JobResult
	for _, e := range []struct {
		id     string
		phases int
	}{{"fig5", 1}, {"max-qps", 2}, {"fault-sweep", 2}} {
		var res []JobResult
		for _, ph := range specs()[e.id].phases[:e.phases] {
			res = append(res, r.RunJobs(ph(res))...)
		}
		out = append(out, res...)
	}
	var latency, faults bool
	for _, res := range out {
		latency = latency || res.Engine.Latency.Requests > 0
		faults = faults || res.Engine.FaultRetries > 0
	}
	if !latency || !faults {
		t.Fatalf("real results cover a latency report %v and the fault fields %v; want both", latency, faults)
	}
	return out
}

// setValue returns p with the value after the first `"key":` replaced by
// val. A value that starts with '[' runs to its first ']'; any other runs to
// the next ',' or '}'.
func setValue(t testing.TB, p []byte, key, val string) []byte {
	t.Helper()
	k := bytes.Index(p, []byte(`"`+key+`":`))
	if k < 0 {
		t.Fatalf("no key %q in %s", key, p)
	}
	start := k + len(key) + 3
	end := start + bytes.IndexAny(p[start:], ",}")
	if p[start] == '[' {
		end = start + bytes.IndexByte(p[start:], ']') + 1
	}
	return append(append(append([]byte{}, p[:start]...), val...), p[end:]...)
}

var (
	corpusOnce            sync.Once
	compactCorpus, others [][]byte
)

// decodeCorpus returns EncodeJobResult's bytes for real and synthetic
// results whose strings need no escaping, which the compact reader must
// accept, and other inputs: EncodeJobResult's bytes for schemes that need
// escaping or hold non-ASCII bytes, and inputs that are not in its form.
func decodeCorpus(t testing.TB) (compact, other [][]byte) {
	corpusOnce.Do(func() {
		encode := func(r JobResult) []byte {
			p, err := EncodeJobResult(r)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		floats := []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 1e20, 0.1, 123456789.125}
		ints := []int64{math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1<<53 + 1), 0, -1, 1e15}
		distinct := make([]int64, 97)
		distinctF := make([]float64, 97)
		for i := range distinct {
			distinct[i] = int64(i)*1000003 + 1
			distinctF[i] = float64(i) + 0.25
		}
		base := encode(synthetic(0, distinct, distinctF, "PIFS-Rec", 3))
		compactCorpus = append(compactCorpus, base,
			encode(JobResult{}),
			encode(synthetic(0, ints, floats, "Pond+PM", 0)),
			encode(synthetic(0, ints, floats, " ", -1)))
		for k := range floats {
			compactCorpus = append(compactCorpus, encode(synthetic(k, ints, floats, "BEACON", 3)))
		}
		real := realResults(t)
		for _, r := range real {
			compactCorpus = append(compactCorpus, encode(r))
		}
		for _, s := range []string{`a"b\c`, "<&>", "naïve", "\x00\x1f\x7f", "\xff", "tab\t", "\u2028"} {
			others = append(others, encode(synthetic(0, distinct, distinctF, s, 1)))
		}
		others = append(others, nonCanonical(t, base, encode(real[0]))...)
	})
	return compactCorpus, others
}

// nonCanonical builds inputs that are not EncodeJobResult's bytes from two
// that are: base, a synthetic result with every field set to a distinct
// value and 3-element slices, and real, fig5's first numasim result.
func nonCanonical(t testing.TB, base, real []byte) [][]byte {
	var out [][]byte
	add := func(ps ...[]byte) { out = append(out, ps...) }
	var indented, tabbed bytes.Buffer
	if err := json.Indent(&indented, base, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&tabbed, real, "", "\t"); err != nil {
		t.Fatal(err)
	}
	add(indented.Bytes(), tabbed.Bytes(),
		bytes.ReplaceAll(base, []byte(`":`), []byte(`": `)),
		bytes.ReplaceAll(base, []byte(`,"`), []byte(`, "`)),
		append(bytes.Clone(base), '\n'), append([]byte(" "), base...))

	// Keys: reordered, unknown, duplicated, missing, in another case.
	var top struct {
		Engine json.RawMessage `json:"engine"`
		Numa   json.RawMessage `json:"numa"`
	}
	if err := json.Unmarshal(base, &top); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(base))
	dec.UseNumber()
	var sorted map[string]any
	if err := dec.Decode(&sorted); err != nil {
		t.Fatal(err)
	}
	resorted, err := json.Marshal(sorted) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	engine := []byte(`{"engine":{`)
	add([]byte(`{"numa":`+string(top.Numa)+`,"engine":`+string(top.Engine)+`}`), resorted,
		bytes.Replace(base, engine, []byte(`{"engine":{"Extra":1,`), 1),
		[]byte(`{"extra":[1,{"a":null}],`+string(base[1:])),
		bytes.Replace(base, engine, []byte(`{"engine":{"Bags":7,`), 1),
		append(base[:len(base)-1:len(base)-1], []byte(`,"numa":{"AppGBs":1}}`)...),
		[]byte(`{"engine":`+string(top.Engine)+`}`),
		[]byte(`{"numa":`+string(top.Numa)+`}`),
		bytes.Replace(base, []byte(`"Bags":`), []byte(`"bags":`), 1),
		bytes.Replace(base, []byte(`"engine":`), []byte(`"ENGINE":`), 1),
		bytes.Replace(real, []byte(`"AppGBs":`), []byte(`"appgbs":`), 1))
	if i := bytes.Index(base, []byte(`"Bags":`)); i >= 0 {
		j := i + bytes.IndexByte(base[i:], ',') + 1
		add(append(bytes.Clone(base[:i]), base[j:]...))
	}

	// Whole inputs that are not one result object.
	add([]byte("null"), []byte("{}"), []byte("[]"), []byte(`""`), []byte{}, []byte(" "),
		[]byte(`{"engine":null,"numa":null}`), []byte(`{"engine":{},"numa":{}}`),
		append(bytes.Clone(base), 'x'), append(bytes.Clone(base), '}'),
		append(bytes.Clone(base), "{}"...), base[:len(base)-1], base[:len(base)/2])

	// Numbers, malformed and well-formed, in integer, float and slice fields.
	for _, n := range []string{"01", "1.", "+1", ".5", "1e400", "-1e400", "-", "1e", "1e+", "0x10",
		"Infinity", "NaN", "1_000", "-0", "-01", "00", "1.0", "1e2", "1E+2", "1.5e3", "-0.0",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"9007199254740993", "1e-400", "null", "true", `"5"`, "[1]", "{}"} {
		add(setValue(t, base, "Bags", n), setValue(t, base, "TotalNS", n), setValue(t, base, "NSPerBag", n),
			setValue(t, base, "DeviceReads", "["+n+"]"), setValue(t, base, "WorkerFiredShare", "[0.5,"+n+"]"),
			setValue(t, real, "AvgLatNS", n))
	}
	for _, s := range []string{"[]", "null", "[1,2,3]", "[ 1]", "[1 ]", "[1,]", "[,1]", "[1", "[1,2",
		`["1"]`, "[null]", "[[1]]", "{}", `""`, "0"} {
		add(setValue(t, base, "DeviceReads", s), setValue(t, base, "WorkerFiredShare", s))
	}

	// Strings: escapes, control and non-ASCII bytes, other JSON values.
	for _, s := range []string{"\"P\xffnd\"", "\"\xc0\xaf\"", "\"\x80\"", `"naïve"`, `"a\"b"`, `"\u0041"`, "\"tab\t\"", "\"\x7f\"",
		`"a\/b"`, `"\ud800"`, `"x`, `5`, `null`, `["a"]`, `""`} {
		add(setValue(t, base, "Scheme", s))
	}
	return out
}

// checkDecodeMatchesJSON holds DecodeJobResult to json.Unmarshal into a
// fresh JobResult on one input: the same failure, or values that are
// reflect.DeepEqual and re-encode to the same bytes.
func checkDecodeMatchesJSON(t testing.TB, payload []byte) {
	t.Helper()
	got, err := DecodeJobResult(payload)
	var want JobResult
	werr := json.Unmarshal(payload, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: DecodeJobResult error %v, json.Unmarshal error %v", payload, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeJobResult gave %+v, json.Unmarshal %+v", payload, got, want)
	}
	g, gerr := EncodeJobResult(got)
	w, werr := EncodeJobResult(want)
	if gerr != nil || werr != nil || !bytes.Equal(g, w) {
		t.Fatalf("%q: re-encoded as %s (%v), json.Unmarshal's value as %s (%v)", payload, g, gerr, w, werr)
	}
}

// TestDecodeJobResultMatchesJSON holds DecodeJobResult to json.Unmarshal on
// EncodeJobResult's bytes for real results (engine and numasim jobs, a
// latency report, the fault fields) and synthetic ones (every field set,
// extreme numbers, nil, empty and 3-element slices, schemes that need
// escaping or hold non-ASCII bytes), and on inputs in any other form
// (whitespace, keys reordered, unknown, duplicated, missing or in another
// case, malformed or out-of-range numbers, wrong value types, trailing
// bytes). The compact reader itself must accept every EncodeJobResult
// output, so none of them costs an encoding/json decode.
func TestDecodeJobResultMatchesJSON(t *testing.T) {
	compact, other := decodeCorpus(t)
	for _, p := range compact {
		var r JobResult
		if !readCompact(p, &r) {
			t.Errorf("the compact reader refused EncodeJobResult output %q", p)
		}
		checkDecodeMatchesJSON(t, p)
	}
	for _, p := range other {
		checkDecodeMatchesJSON(t, p)
	}
	t.Logf("%d compact and %d other inputs", len(compact), len(other))
}

// FuzzDecodeJobResult checks the same property as
// TestDecodeJobResultMatchesJSON on arbitrary bytes, seeded from its corpus.
func FuzzDecodeJobResult(f *testing.F) {
	compact, other := decodeCorpus(f)
	for _, p := range append(append([][]byte{}, compact...), other...) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeMatchesJSON(t, payload)
	})
}

// TestResultLayoutComplete asserts that JobResult's compact layout builds
// with nothing reported, so no EncodeJobResult payload falls back to
// encoding/json, and that layoutOf reports every field shape the reader
// cannot mirror, naming the field.
func TestResultLayoutComplete(t *testing.T) {
	if resultLayoutErr != nil {
		t.Fatalf("JobResult's layout did not build: %v", resultLayoutErr)
	}
	type inner struct{ N int64 }
	type shapes struct {
		OK     float64
		Nested inner
		hidden int
		inner
		Omit    int             `json:",omitempty"`
		Quoted  int64           `json:",string"`
		Skipped int             `json:"-"`
		Dashed  int             `json:"a-b"`
		Dup     int             `json:"OK"`
		Flag    bool            `json:"flag"`
		Small   int32           `json:"small"`
		Ptr     *int            `json:"ptr"`
		Map     map[string]int  `json:"map"`
		Ints    []int           `json:"ints"`
		Arr     [2]int64        `json:"arr"`
		Any     any             `json:"any"`
		When    time.Time       `json:"when"`
		Raw     json.RawMessage `json:"raw"`
		Deep    struct{ B bool }
	}
	_, err := layoutOf(reflect.TypeFor[shapes](), "shapes")
	if err == nil {
		t.Fatal("layoutOf reported nothing")
	}
	for _, name := range []string{"hidden", "inner", "Omit", "Quoted", "Skipped", "Dashed", "Dup", "Flag",
		"Small", "Ptr", "Map", "Ints", "Arr", "Any", "When", "Raw", "Deep.B"} {
		if !strings.Contains(err.Error(), fmt.Sprintf("shapes.%s:", name)) {
			t.Errorf("layoutOf did not report field %s: %v", name, err)
		}
	}
	for _, name := range []string{"OK", "Nested"} {
		if strings.Contains(err.Error(), fmt.Sprintf("shapes.%s", name)) {
			t.Errorf("layoutOf reported field %s, which it can mirror: %v", name, err)
		}
	}
}
