package memo

import (
	"bytes"
	"testing"
)

// TestFrameRoundTrip pins the frame codec shared by cache log records and
// distributed result posts: a frame decodes only under the key it was
// encoded for, and only byte-perfect.
func TestFrameRoundTrip(t *testing.T) {
	h := New("frame-test")
	h.Str("payload-key")
	key := h.Sum()
	payload := []byte(`{"engine":{"ns_per_bag":42}}`)

	frame := EncodeFrame(key, payload)
	if len(frame) != FrameOverhead+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(frame), FrameOverhead+len(payload))
	}
	got, ok := DecodeFrame(frame, key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: ok=%v got=%q", ok, got)
	}

	// The decoded payload must be a copy: mutating it cannot reach back into
	// the frame a caller may still hold (or an mmap'd cache file).
	got[0] ^= 0xFF
	if again, ok := DecodeFrame(frame, key); !ok || !bytes.Equal(again, payload) {
		t.Error("decoded payload aliases the frame bytes")
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	h := New("frame-test")
	h.Str("payload-key")
	key := h.Sum()
	frame := EncodeFrame(key, []byte("the payload"))

	reject := func(name string, raw []byte, want Hash) {
		t.Helper()
		if _, ok := DecodeFrame(raw, want); ok {
			t.Errorf("%s: decoded", name)
		}
	}
	reject("empty", nil, key)
	reject("truncated", frame[:len(frame)-1], key)
	reject("header only", frame[:FrameOverhead-4], key)

	flip := bytes.Clone(frame)
	flip[len(flip)-6] ^= 1 // payload bit
	reject("payload bit flip", flip, key)

	magic := bytes.Clone(frame)
	magic[0] ^= 1
	reject("bad magic", magic, key)

	reject("trailing garbage", append(bytes.Clone(frame), 0), key)

	var other Hash
	other[0] = 1
	reject("wrong key", frame, other)
}
