package pifsrec

import "testing"

func smallModel() ModelConfig {
	m := RMC1().Scaled(64)
	m.Tables = 4
	return m
}

func TestSimulateRoundTrip(t *testing.T) {
	m := smallModel()
	tr, err := TraceFor(MetaLike, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes() {
		r, err := Simulate(Config{Scheme: scheme, Model: m, Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Bags == 0 || r.NSPerBag <= 0 {
			t.Fatalf("%s: empty result %+v", scheme, r)
		}
	}
}

// TestSimulateRejectsBadInput builds traces bag by bag, as a library
// caller would, and checks that Simulate reports each malformed one as an
// error instead of panicking or simulating it.
func TestSimulateRejectsBadInput(t *testing.T) {
	m := smallModel()
	// Control: a well-formed hand-built trace, with the edge rows and
	// weights, simulates.
	good := &Trace{Tables: m.Tables, RowsPerTable: m.EmbRows, Bags: []Bag{
		{Table: int32(m.Tables - 1), Indices: []uint32{0, uint32(m.EmbRows - 1)}, Weights: []float32{1, 0.5}},
	}}
	if r, err := Simulate(Config{Scheme: PIFSRec, Model: m, Trace: good, Seed: 1}); err != nil || r.Bags != 1 {
		t.Fatalf("well-formed trace: %d bags, err %v", r.Bags, err)
	}

	cases := []struct {
		name   string
		scheme Scheme
		bag    Bag
	}{
		{"row past table", PIFSRec, Bag{Table: 0, Indices: []uint32{uint32(m.EmbRows)}}},
		{"table past model", PIFSRec, Bag{Table: int32(m.Tables), Indices: []uint32{1}}},
		{"negative table", PIFSRec, Bag{Table: -1, Indices: []uint32{1}}},
		{"one weight for two indices", PIFSRec, Bag{Table: 0, Indices: []uint32{1, 2}, Weights: []float32{0.5}}},
		{"unknown scheme", Scheme("warp-drive"), Bag{Table: 0, Indices: []uint32{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Simulate panicked: %v", r)
				}
			}()
			tr := &Trace{Tables: m.Tables, RowsPerTable: m.EmbRows, Bags: []Bag{tc.bag}}
			if _, err := Simulate(Config{Scheme: tc.scheme, Model: m, Trace: tr, Seed: 1}); err == nil {
				t.Fatal("Simulate accepted the input")
			}
		})
	}
}

func TestSchemeComparisonThroughPublicAPI(t *testing.T) {
	m := smallModel()
	tr, err := TraceFor(MetaLike, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	pond, err := Simulate(Config{Scheme: Pond, Model: m, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pifs, err := Simulate(Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pifs.NSPerBag >= pond.NSPerBag {
		t.Errorf("PIFS-Rec (%.0f ns/bag) not faster than Pond (%.0f ns/bag)",
			pifs.NSPerBag, pond.NSPerBag)
	}
}
