package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"xcql/internal/fragment"
	"xcql/internal/xmldom"
)

// On-disk format. A segment or snapshot file is an 8-byte magic followed
// by frames. Every frame is:
//
//	u32 BE  payload length n (8 <= n <= maxFramePayload)
//	u32 BE  CRC-32 (Castagnoli) of the payload
//	n bytes payload = u64 BE LSN + fragment wire XML
//
// The LSN is the store's own log sequence number, assigned once at
// append time and preserved verbatim by snapshots and compaction — it
// is what makes frame identity survive rewrites, so recovery can
// deduplicate a frame that a compaction crash left in both an input
// and an output segment. Each frame is written with a single Write
// call, so a crash tears at most the trailing frame.
//
// A snapshot file's first frame carries LSN 0 and a <segstore:snapshot>
// meta element instead of a filler.
const (
	segMagic  = "XSEGLOG1"
	snapMagic = "XSEGSNP1"

	frameHeaderLen  = 8
	maxFramePayload = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameRec is one decoded frame.
type frameRec struct {
	lsn  uint64
	frag *fragment.Fragment
	// xml is the fragment's wire form exactly as stored; re-encoding is
	// avoided when frames are copied between files (snapshot, compaction)
	// so byte identity is structural, not re-serialization luck. A frame
	// read back from a file has one copy of its payload, this string: frag
	// was decoded in place from it and carries it as its wire form.
	xml string
}

// encodeFrame renders one frame (header + payload) into a fresh buffer.
func encodeFrame(lsn uint64, xml string) []byte {
	payloadLen := 8 + len(xml)
	buf := make([]byte, frameHeaderLen+payloadLen)
	binary.BigEndian.PutUint32(buf[0:4], uint32(payloadLen))
	binary.BigEndian.PutUint64(buf[frameHeaderLen:], lsn)
	copy(buf[frameHeaderLen+8:], xml)
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(buf[frameHeaderLen:], crcTable))
	return buf
}

// parseResult is what scanning one file's bytes yields.
type parseResult struct {
	frames []frameRec
	// goodSize is the byte offset up to which the file parsed cleanly —
	// the truncation point when a tail is torn.
	goodSize int64
	// torn reports an incomplete trailing frame (a crash mid-write):
	// bytes past goodSize are a prefix of a frame that never committed.
	torn bool
	// corrupt reports a structurally broken interior: a CRC mismatch, an
	// impossible length, or an unparseable payload with more data behind
	// it. The frames before corruptAt are still good; the file itself
	// must be quarantined, not repaired in place.
	corrupt    bool
	corruptAt  int64
	corruptMsg string
}

// parseFile scans one segment or snapshot body (bytes past the magic,
// with base = len(magic) for offset reporting).
func parseFile(data []byte, base int64) parseResult {
	res := parseResult{goodSize: base}
	var dec xmldom.Decoder // the replay's: its scratch serves every frame
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeaderLen {
			res.torn = true
			return res
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n < 8 || n > maxFramePayload {
			res.corrupt = true
			res.corruptAt = base + int64(off)
			res.corruptMsg = fmt.Sprintf("impossible frame length %d", n)
			return res
		}
		if rest < frameHeaderLen+n {
			// shorter than its own header claims: a torn trailing write
			res.torn = true
			return res
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		wantCRC := binary.BigEndian.Uint32(data[off+4 : off+8])
		if crc32.Checksum(payload, crcTable) != wantCRC {
			res.corrupt = true
			res.corruptAt = base + int64(off)
			res.corruptMsg = "frame CRC mismatch"
			return res
		}
		lsn := binary.BigEndian.Uint64(payload[:8])
		rec := frameRec{lsn: lsn, xml: string(payload[8:])}
		if lsn > 0 {
			frag, err := fragment.ParseStored(&dec, rec.xml)
			if err != nil {
				res.corrupt = true
				res.corruptAt = base + int64(off)
				res.corruptMsg = fmt.Sprintf("frame payload not a filler: %v", err)
				return res
			}
			rec.frag = frag
		}
		res.frames = append(res.frames, rec)
		off += frameHeaderLen + n
		res.goodSize = base + int64(off)
	}
	return res
}
