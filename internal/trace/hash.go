package trace

import "crypto/sha256"

// Hash returns the trace's 256-bit content identity: the SHA-256 of its
// canonical file serialization (Write). Two traces hash equal exactly when
// Write produces identical bytes, so a trace loaded from disk hashes the
// same as the generated trace it was saved from — the property the result
// cache's (config, trace, code-version) keys rely on.
//
// Trace does not cache the hash, which keeps it free of hidden mutable
// state: each call re-serializes the trace through Write into SHA-256.
// engine.Config.CanonicalBinary makes one call per config. The harness
// instead hashes each trace it generates once, keeps the hash beside the
// shared trace, and passes it to engine.Config.CanonicalBinaryWithTraceHash
// for every job over that trace. Write hands SHA-256 one bag per call, so BenchmarkTraceHash, over the
// latency experiments' 1024-bag, 187 KB trace, runs in about 0.2 ms on a
// 2-vCPU Xeon, nearly all of it in SHA-256.
func (t *Trace) Hash() ([32]byte, error) {
	h := sha256.New()
	if err := t.Write(h); err != nil {
		// Write only fails on unserializable traces (oversized name) or
		// writer errors; sha256 never errors, so this is the former.
		return [32]byte{}, err
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}
