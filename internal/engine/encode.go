package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pifsrec/internal/scenario"
)

// configEncodingVersion is the canonical-encoding layout version. Bump it —
// together with memo.CodeVersion — whenever the field set or layout below
// changes; the golden test in encode_test.go pins the current layout so a
// drift without a bump fails loudly instead of silently aliasing cache
// entries.
const configEncodingVersion = 2

// configMagic leads every canonical encoding so config identities can never
// collide with other hashed byte strings.
var configMagic = [8]byte{'P', 'I', 'F', 'S', 'C', 'F', 'G', 0 + configEncodingVersion}

// CanonicalBinary returns the versioned canonical encoding of the
// configuration — the byte string whose hash is the config's content
// identity for result memoization. The config is normalized first (the same
// defaulting and validation Run applies), so a zero-valued field and its
// explicit default encode identically and an invalid config is an error
// here rather than a bogus cache key.
//
// Shards is deliberately NOT part of the identity: results are
// byte-identical at every shard count and group placement (the determinism
// gates from the sharded-engine and component-model work), so it is a
// scheduling decision, not an input. The trace contributes its content hash
// (trace.Trace.Hash), not its bytes.
func (c Config) CanonicalBinary() ([]byte, error) {
	var traceHash [32]byte
	if c.Trace != nil { // a nil trace is fillDefaults' error
		h, err := c.Trace.Hash()
		if err != nil {
			return nil, fmt.Errorf("engine: hashing trace: %w", err)
		}
		traceHash = h
	}
	return c.CanonicalBinaryWithTraceHash(traceHash)
}

// CanonicalBinaryWithTraceHash is the canonical encoder behind
// CanonicalBinary, with the trace's content hash supplied by the caller
// instead of computed: traceHash must be c.Trace.Hash(). A caller that
// hashed a shared, never-modified trace once passes that hash for every
// config over it; the encoding is byte-identical to CanonicalBinary's.
func (c Config) CanonicalBinaryWithTraceHash(traceHash [32]byte) ([]byte, error) {
	norm := c
	if err := norm.fillDefaults(); err != nil {
		return nil, err
	}

	b := make([]byte, 0, 256)
	b = append(b, configMagic[:]...)
	b = appendStr(b, string(norm.Scheme))

	// Model (Table I shape).
	m := norm.Model
	b = appendStr(b, m.Name)
	b = appendI64(b, m.EmbRows)
	b = appendI64(b, int64(m.EmbDim))
	b = appendI64(b, int64(m.Tables))
	b = appendInts(b, m.BottomMLP)
	b = appendInts(b, m.TopMLP)
	b = appendI64(b, int64(m.DenseFeatures))

	b = append(b, traceHash[:]...)

	b = appendI64(b, int64(norm.Devices))
	b = appendI64(b, int64(norm.Switches))
	b = appendI64(b, int64(norm.Hosts))
	b = appendF64(b, norm.LocalFraction)
	b = appendI64(b, int64(norm.BufferBytes))
	b = appendStr(b, string(norm.BufferPolicy))
	b = appendF64(b, norm.ColdAgeThreshold)
	b = appendF64(b, norm.MigrateThreshold)
	b = appendBool(b, norm.PageBlockMigration)
	b = appendI64(b, int64(norm.HostParallelism))
	b = appendI64(b, int64(norm.EpochBags))
	b = appendBool(b, norm.DisableOoO)
	b = appendBool(b, norm.DisablePM)
	b = appendBool(b, norm.DisableOSB)
	b = appendBool(b, norm.TPPPolicy)
	// A retired v2 field's slot, always false: writing it keeps every
	// existing cache key valid.
	b = appendBool(b, false)

	// Fault plan: normalization already dropped empty plans, so presence is
	// meaningful. Encoded as its (deterministic) JSON form: struct fields
	// marshal in declaration order, so identical plans encode identically.
	b = appendBool(b, norm.Faults != nil)
	if norm.Faults != nil {
		pj, err := json.Marshal(norm.Faults)
		if err != nil {
			return nil, fmt.Errorf("engine: encoding fault plan: %w", err)
		}
		b = appendBytes(b, pj)
	}

	b = appendU64(b, norm.Seed)

	// Scenario: appended ONLY when present, after every v2 field, so a
	// non-scenario config's encoding stays byte-for-byte what v2 produced —
	// existing cache entries for closed-loop jobs keep their keys. The
	// section cannot alias a scenario-free encoding: those always end
	// exactly at the fixed-width Seed, while this one continues with a
	// length-framed marker. Normalization already dropped empty specs and
	// zeroed kind-irrelevant fields, and a trace-driven scenario contributes
	// its arrival file's content hash, not the path.
	if norm.Scenario != nil {
		sc := norm.Scenario
		b = appendStr(b, "SCENARIO")
		b = appendStr(b, string(sc.Kind))
		b = appendF64(b, sc.QPS)
		b = appendF64(b, sc.Swing)
		b = appendI64(b, sc.PeriodNS)
		b = appendI64(b, sc.SLONS)
		b = appendU64(b, sc.Seed)
		b = appendBool(b, sc.Kind == scenario.Trace)
		if sc.Kind == scenario.Trace {
			th, err := scenario.HashArrivalTrace(sc.ArrivalTracePath)
			if err != nil {
				return nil, fmt.Errorf("engine: hashing arrival trace: %w", err)
			}
			b = append(b, th[:]...)
		}
	}
	return b, nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, int64(v))
	}
	return b
}
