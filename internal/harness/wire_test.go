package harness

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"pifsrec/internal/trace"
)

// TestJobWireRoundTrip encodes and decodes every first-phase job of real
// experiments (engine and numa kinds) and asserts the decoded job, with its
// trace attached again as a worker attaches the one its lease names,
// reproduces the original content hash — the property the worker's
// refuse-on-mismatch check relies on to make codec drift a cost, never a
// correctness bug. A decoded engine job carries no trace, and cannot be
// hashed until one is attached.
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
			if !bytes.HasPrefix(wire, []byte("PIFSJOB2\x02")) {
				t.Fatalf("%s job %d: wire starts %q, want magic PIFSJOB2 and version 2", id, i, wire[:min(len(wire), 9)])
			}
			dec, err := DecodeJob(wire)
			if err != nil {
				t.Fatalf("%s job %d: decode: %v", id, i, err)
			}
			if (dec.Engine != nil) != (j.Engine != nil) || (dec.Numa != nil) != (j.Numa != nil) {
				t.Fatalf("%s job %d: decoded job changed kind", id, i)
			}
			if dec.Engine != nil {
				if dec.Engine.Trace != nil {
					t.Fatalf("%s job %d: decoded engine job carries a trace", id, i)
				}
				if _, err := dec.Hash(); err == nil {
					t.Fatalf("%s job %d: a job with no trace hashed", id, i)
				}
				dec.Engine.Trace = j.Engine.Trace
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

// sealJobWire appends the wire's CRC to body, so a test can build a wire
// that is well-formed except for what it means to corrupt.
func sealJobWire(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// legacyJobWire builds the PIFSJOB1 form of an engine job: version 1, the
// config frame, then the trace's PIFSTRC1 bytes inline in a second frame.
func legacyJobWire(t testing.TB, j Job) []byte {
	t.Helper()
	wire, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := j.Engine.Trace.Write(&tb); err != nil {
		t.Fatal(err)
	}
	body := append([]byte("PIFSJOB1"), 1)
	body = append(body, wire[9:len(wire)-4]...)
	return sealJobWire(appendFramed(body, tb.Bytes()))
}

func TestDecodeJobRejectsCorruptWire(t *testing.T) {
	job := Jobs("fig12a")[0]
	wire, err := EncodeJob(job)
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

	// Wires that are well-formed but for one thing, each with a valid
	// checksum: a PIFSJOB1 peer's wire with its trace inline, a current
	// wire under the PIFSJOB1 magic, one labelled version 1, and one with
	// the trace frame appended.
	check("PIFSJOB1 wire", legacyJobWire(t, job))
	m1 := bytes.Clone(wire[:len(wire)-4])
	m1[7] = '1'
	check("PIFSJOB1 magic on a version-2 wire", sealJobWire(m1))
	v1 := bytes.Clone(wire[:len(wire)-4])
	v1[8] = 1
	check("version 1 under the PIFSJOB2 magic", sealJobWire(v1))
	legacy := legacyJobWire(t, job)
	inline := append([]byte("PIFSJOB2"), jobWireVersion)
	check("inline trace frame", sealJobWire(append(inline, legacy[9:len(legacy)-4]...)))
}

// FuzzJobWire throws arbitrary bytes at DecodeJob. It must never panic; it
// must reject every wire whose magic, version or checksum is not the
// current one, PIFSJOB1 wires included; and every wire it accepts must
// re-encode, with a trace attached to an engine job, to the same bytes.
func FuzzJobWire(f *testing.F) {
	for _, id := range []string{"fig12a", "fig5"} {
		j := Jobs(id)[0]
		wire, err := EncodeJob(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		flip := bytes.Clone(wire)
		flip[len(flip)/2] ^= 0x04
		f.Add(flip)
		f.Add(append(bytes.Clone(wire), 0))
		if j.Engine != nil {
			f.Add(legacyJobWire(f, j))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("PIFSJOB2"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		job, err := DecodeJob(raw)
		sealed := len(raw) >= 14 && [8]byte(raw[:8]) == jobWireMagic && raw[8] == jobWireVersion &&
			crc32.ChecksumIEEE(raw[:len(raw)-4]) == binary.LittleEndian.Uint32(raw[len(raw)-4:])
		if err != nil {
			return
		}
		if !sealed {
			t.Fatalf("accepted a wire with a bad magic, version or checksum: %q", raw[:min(len(raw), 10)])
		}
		if job.Engine != nil {
			if job.Engine.Trace != nil {
				t.Fatal("decoded engine job carries a trace")
			}
			job.Engine.Trace = &trace.Trace{}
		}
		again, err := EncodeJob(job)
		if err != nil {
			t.Fatalf("accepted wire does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted wire re-encodes to different bytes:\n got %q\nwant %q", again, raw)
		}
	})
}
