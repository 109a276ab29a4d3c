package memo

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
)

// The CRC frame below is the store's record format, exported so the
// distributed-sweep wire protocol can reuse it verbatim: a worker posting a
// result to the coordinator frames the payload exactly like a cache record,
// and the coordinator validates it with the same decoder the store uses
// against damaged records. One framing, one corpus of corruption tests.
//
// Frame layout (all integers little-endian):
//
//	magic   [8]byte  "PIFSMEM1"
//	version u16      frame version (frameVersion)
//	key     [32]byte the content hash the payload belongs to
//	plen    u32      payload length
//	payload plen bytes
//	crc     u32      IEEE CRC-32 over everything before it

var frameMagic = [8]byte{'P', 'I', 'F', 'S', 'M', 'E', 'M', '1'}

// tombMagic marks a store's delete record: a frame with this magic and no
// payload. DecodeFrame accepts only frameMagic, and the CRC covers the
// magic, so no bit flip turns a tombstone into a result or back unnoticed.
var tombMagic = [8]byte{'P', 'I', 'F', 'S', 'D', 'E', 'L', '1'}

// frameVersion is the framing version; decoders reject (miss) any other
// version, so framing changes can never misparse old frames.
const frameVersion = 1

// FrameOverhead is the fixed byte cost of framing a payload.
const FrameOverhead = headerLen + 4 // header + crc

// headerLen is the frame's bytes before the payload: magic, version, key
// and plen.
const headerLen = 8 + 2 + 32 + 4

// EncodeFrame wraps payload in the store's CRC frame, bound to the content
// hash h.
func EncodeFrame(h Hash, payload []byte) []byte { return encode(frameMagic, h, payload) }

// tombstone is the store's delete record for h.
func tombstone(h Hash) []byte { return encode(tombMagic, h, nil) }

func encode(magic [8]byte, h Hash, payload []byte) []byte {
	out := make([]byte, 0, FrameOverhead+len(payload))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, frameVersion)
	out = append(out, h[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	crc := crc32.ChecksumIEEE(out)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// DecodeFrame validates a raw frame against the hash it should be bound to
// and returns the payload. Any deviation — short frame, bad magic, unknown
// version, key mismatch, length mismatch (including trailing garbage),
// checksum failure — returns ok=false. The payload is copied out of raw, so
// callers may reuse or mutate raw afterwards.
func DecodeFrame(raw []byte, want Hash) ([]byte, bool) {
	payload, ok := checkFrame(raw, want)
	if !ok {
		return nil, false
	}
	return bytes.Clone(payload), true
}

// checkFrame is DecodeFrame without the copy: the payload aliases raw.
func checkFrame(raw []byte, want Hash) ([]byte, bool) {
	if len(raw) < FrameOverhead {
		return nil, false
	}
	if [8]byte(raw[:8]) != frameMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint16(raw[8:10]) != frameVersion {
		return nil, false
	}
	if Hash(raw[10:42]) != want {
		return nil, false
	}
	plen := binary.LittleEndian.Uint32(raw[42:46])
	if int(plen) != len(raw)-FrameOverhead {
		return nil, false
	}
	body := raw[:len(raw)-4]
	crc := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, false
	}
	return raw[headerLen : headerLen+plen], true
}
