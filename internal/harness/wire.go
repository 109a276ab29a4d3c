package harness

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"pifsrec/internal/engine"
)

// Job wire format — the byte string a coordinator ships to a pull worker so
// the worker can rebuild the job and run it through its own memoized
// RunJobs path. Layout (all integers little-endian):
//
//	magic   [8]byte  "PIFSJOB2"
//	version u8       wire version (jobWireVersion)
//	kind    u8       1 = engine job, 2 = numasim job
//	engine: u32-framed config JSON (trace excluded)
//	numa:   u32-framed NumaJob JSON
//	crc     u32      IEEE CRC-32 over everything before it
//
// An engine job's trace is not on the wire: the lease names it by its
// content hash (trace.Trace.Hash), and the worker attaches the trace whose
// PIFSTRC1 bytes it fetched and checked against that hash. DecodeJob
// therefore returns an engine job with a nil Trace, which Job.Hash rejects,
// so a job whose trace was never resolved cannot be hashed, run or stored.
//
// The encoding does not try to be canonical — the job's content identity is
// Job.Hash, never these bytes. A worker therefore re-derives the hash from
// the decoded job, with its trace attached, and refuses to run a job whose
// recomputed hash differs from the lease's: any drift between the wire
// codec and the config fields (a new field missing from the JSON form, a
// wrong trace) degrades to a refused lease and a coordinator-local run,
// never to a result stored under the wrong key.

var jobWireMagic = [8]byte{'P', 'I', 'F', 'S', 'J', 'O', 'B', '2'}

// jobWireVersion is the job wire version; decoders reject any other, so
// mixed-version fleets fail leases loudly instead of misparsing.
const jobWireVersion = 2

const (
	jobKindEngine = 1
	jobKindNuma   = 2
)

// EncodeJob serializes a job for the distribution wire. It fails only on a
// job that sets neither or both of Engine/Numa, or on a config JSON cannot
// encode. The trace is left off the wire (see the layout above). The
// pure-scheduling Shards field is stripped: the worker runs the job at its
// default, and results are byte-identical regardless.
func EncodeJob(j Job) ([]byte, error) {
	b := make([]byte, 0, 512)
	b = append(b, jobWireMagic[:]...)
	b = append(b, jobWireVersion)
	switch {
	case j.Engine != nil && j.Numa == nil:
		cfg := *j.Engine
		cfg.Trace = nil
		cfg.Shards = 0
		cj, err := json.Marshal(cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: encoding job config: %w", err)
		}
		b = append(b, jobKindEngine)
		b = appendFramed(b, cj)
	case j.Numa != nil && j.Engine == nil:
		nj, err := json.Marshal(j.Numa)
		if err != nil {
			return nil, fmt.Errorf("harness: encoding numa job: %w", err)
		}
		b = append(b, jobKindNuma)
		b = appendFramed(b, nj)
	default:
		return nil, fmt.Errorf("harness: job must set exactly one of Engine/Numa")
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// DecodeJob rebuilds a job from its wire form, validating magic, version,
// framing, and checksum. An engine job comes back with a nil Trace: the
// caller attaches the trace its lease names. DecodeJob does NOT vouch for
// content identity — callers must compare the decoded job's Hash, trace
// attached, against the hash the job was leased under before running it.
func DecodeJob(raw []byte) (Job, error) {
	const head = 8 + 1 + 1 // magic + version + kind
	if len(raw) < head+4 {
		return Job{}, fmt.Errorf("harness: job wire too short (%d bytes)", len(raw))
	}
	if [8]byte(raw[:8]) != jobWireMagic {
		return Job{}, fmt.Errorf("harness: bad job wire magic %q", raw[:8])
	}
	if raw[8] != jobWireVersion {
		return Job{}, fmt.Errorf("harness: job wire version %d, want %d", raw[8], jobWireVersion)
	}
	body := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return Job{}, fmt.Errorf("harness: job wire checksum mismatch")
	}
	frame, rest, err := readFramed(body[head:])
	if err != nil {
		return Job{}, fmt.Errorf("harness: job frame: %w", err)
	}
	if len(rest) != 0 {
		return Job{}, fmt.Errorf("harness: %d trailing bytes after the job frame", len(rest))
	}
	switch raw[9] {
	case jobKindEngine:
		var cfg engine.Config
		if err := json.Unmarshal(frame, &cfg); err != nil {
			return Job{}, fmt.Errorf("harness: decoding job config: %w", err)
		}
		return Job{Engine: &cfg}, nil
	case jobKindNuma:
		var n NumaJob
		if err := json.Unmarshal(frame, &n); err != nil {
			return Job{}, fmt.Errorf("harness: decoding numa job: %w", err)
		}
		return Job{Numa: &n}, nil
	default:
		return Job{}, fmt.Errorf("harness: unknown job wire kind %d", raw[9])
	}
}

func appendFramed(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func readFramed(b []byte) (frame, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated length prefix")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("frame length %d exceeds %d remaining bytes", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}
