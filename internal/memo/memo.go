// Package memo implements content-addressed result memoization for the
// simulation harness: a stable 256-bit content hash over canonical,
// versioned encodings of simulation inputs, and a store mapping those
// hashes to cached results — one append-only log of CRC-framed records per
// cache directory, indexed by offset when the store opens, with an
// in-memory LRU in front.
//
// The cache's correctness contract is the repository's byte-determinism
// guarantees: a simulation's result is a pure function of its content
// identity (config + trace + code version), independent of shard count,
// placement, worker-pool width, and scheduling. A hash therefore names its
// result forever — entries never need revalidation, only invalidation by
// code-version bump.
//
// A corrupt or stale cache can never change results, only cost: every
// record is framed, length-checked, key-checked, and checksummed when the
// log is scanned and again when it is read, and anything suspect is
// treated as a miss and transparently re-simulated.
package memo

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// CodeVersion is the code-version salt folded into every content hash.
//
// Bump it whenever a change alters ANY simulation result — engine
// semantics, trace generation, numasim models, result fields — so stale
// cache entries can never alias a new code version's results. The
// canonical-encoding golden tests (engine TestCanonicalBinaryGolden) fail
// when input encodings drift, forcing the bump; the result-schema
// fingerprint folded in by the harness catches result-shape drift
// automatically.
const CodeVersion = "pifsrec-sim-v8"

// Hash is a 256-bit content identity.
type Hash [32]byte

// Hex returns the lowercase hex form of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Hasher folds tagged, length-framed fields into a SHA-256 sum. The framing
// makes the encoding injective: no two distinct field sequences produce the
// same byte stream, so accidental hash collisions between different inputs
// reduce to SHA-256 collisions.
type Hasher struct {
	h hash.Hash
}

// New returns a Hasher seeded with the given salt (normally CodeVersion).
func New(salt string) *Hasher {
	hs := &Hasher{h: sha256.New()}
	hs.Str(salt)
	return hs
}

// Clone returns an independent Hasher that has folded everything hs has:
// folding into either one leaves the other's Sum unchanged. Clone only
// reads hs, so goroutines may clone one shared Hasher concurrently, which
// is how the harness folds its per-salt key prefix once for every job.
func (hs *Hasher) Clone() *Hasher {
	state, err := hs.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("memo: marshaling SHA-256 state: " + err.Error())
	}
	c := sha256.New()
	if err := c.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("memo: restoring SHA-256 state: " + err.Error())
	}
	return &Hasher{h: c}
}

func (hs *Hasher) tag(t byte) { hs.h.Write([]byte{t}) }

func (hs *Hasher) writeLen(n int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	hs.h.Write(b[:])
}

// Str folds a length-framed string.
func (hs *Hasher) Str(s string) {
	hs.tag('S')
	hs.writeLen(len(s))
	hs.h.Write([]byte(s))
}

// Bytes folds a length-framed byte string.
func (hs *Hasher) Bytes(p []byte) {
	hs.tag('R')
	hs.writeLen(len(p))
	hs.h.Write(p)
}

// U64 folds an unsigned integer.
func (hs *Hasher) U64(v uint64) {
	hs.tag('U')
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	hs.h.Write(b[:])
}

// I64 folds a signed integer.
func (hs *Hasher) I64(v int64) {
	hs.tag('I')
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	hs.h.Write(b[:])
}

// F64 folds a float by its IEEE-754 bit pattern.
func (hs *Hasher) F64(v float64) {
	hs.tag('F')
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	hs.h.Write(b[:])
}

// Bool folds a boolean.
func (hs *Hasher) Bool(v bool) {
	hs.tag('B')
	if v {
		hs.h.Write([]byte{1})
	} else {
		hs.h.Write([]byte{0})
	}
}

// Sum returns the accumulated hash. The Hasher may keep accumulating after
// Sum; each call returns the hash of everything folded so far.
func (hs *Hasher) Sum() Hash {
	var out Hash
	hs.h.Sum(out[:0])
	return out
}
