package harness

import (
	"bytes"
	"testing"
)

// TestJobWireRoundTrip encodes and decodes every first-phase job of real
// experiments (engine and numa kinds) and asserts the decoded job reproduces
// the original content hash — the property the worker's refuse-on-mismatch
// check relies on to make codec drift a cost, never a correctness bug.
func TestJobWireRoundTrip(t *testing.T) {
	for _, id := range []string{"fig12a", "fig5", "ablation-migration"} {
		jobs := Jobs(id)
		if len(jobs) == 0 {
			t.Fatalf("%s: no jobs", id)
		}
		for i, j := range jobs {
			want, err := j.Hash()
			if err != nil {
				t.Fatalf("%s job %d: hash: %v", id, i, err)
			}
			wire, err := EncodeJob(j)
			if err != nil {
				t.Fatalf("%s job %d: encode: %v", id, i, err)
			}
			dec, err := DecodeJob(wire)
			if err != nil {
				t.Fatalf("%s job %d: decode: %v", id, i, err)
			}
			got, err := dec.Hash()
			if err != nil {
				t.Fatalf("%s job %d: decoded hash: %v", id, i, err)
			}
			if got != want {
				t.Errorf("%s job %d: decoded job hashes %s, want %s", id, i, got.Hex()[:12], want.Hex()[:12])
			}
			if dec.Engine != nil && dec.Engine.Shards != 0 {
				t.Errorf("%s job %d: Shards %d survived the wire", id, i, dec.Engine.Shards)
			}
		}
	}
}

// TestJobWireSchedulingStripped asserts jobs differing only in the pure
// scheduling Shards field encode to identical wire bytes: the worker picks
// its own schedule, so shipping the coordinator's would be wasted (and
// misleading) bytes.
func TestJobWireSchedulingStripped(t *testing.T) {
	base := Jobs("fig12a")[0]
	if base.Engine == nil {
		t.Fatal("fig12a job 0 is not an engine job")
	}
	plain, err := EncodeJob(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *base.Engine
	cfg.Shards = 3
	sched, err := EncodeJob(Job{Engine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, sched) {
		t.Error("Shards changed the job wire bytes")
	}
}

func TestEncodeJobRejectsNonDistributable(t *testing.T) {
	if _, err := EncodeJob(Job{}); err == nil {
		t.Error("empty job encoded")
	}
	eng := Jobs("fig12a")[0]
	cfg := *eng.Engine
	cfg.Placement = func(weights []float64, workers int) []int32 { return nil }
	if _, err := EncodeJob(Job{Engine: &cfg}); err == nil {
		t.Error("job with a custom Placement policy encoded")
	}
	cfg2 := *eng.Engine
	cfg2.Trace = nil
	if _, err := EncodeJob(Job{Engine: &cfg2}); err == nil {
		t.Error("job with no trace encoded")
	}
}

func TestDecodeJobRejectsCorruptWire(t *testing.T) {
	wire, err := EncodeJob(Jobs("fig12a")[0])
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, raw []byte) {
		t.Helper()
		if _, err := DecodeJob(raw); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	check("empty", nil)
	check("truncated header", wire[:8])
	check("truncated body", wire[:len(wire)/2])
	check("truncated crc", wire[:len(wire)-2])

	flip := bytes.Clone(wire)
	flip[len(flip)/2] ^= 0x40
	check("bit flip", flip)

	magic := bytes.Clone(wire)
	magic[0] = 'X'
	check("bad magic", magic)

	ver := bytes.Clone(wire)
	ver[8] = 99
	check("bad version", ver)

	kind := bytes.Clone(wire)
	kind[9] = 7
	check("bad kind", kind)

	check("trailing garbage", append(bytes.Clone(wire), 0xAA, 0xBB))
}
