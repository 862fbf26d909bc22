package registry

import (
	"strconv"
	"time"
	"unicode/utf8"

	"xcql/internal/inc"
)

// WireResult is the JSON wire form of one delivery. Delta items are
// serialized with the same item serialization the equivalence harness
// diffs on (nodes as XML, atomics as string values), so what a
// subscriber reads over the wire is exactly the delta an embedded
// consumer would see.
type WireResult struct {
	Type     string   `json:"type"` // always "result"
	ID       int64    `json:"id"`
	At       string   `json:"at"`
	Delta    []string `json:"delta"`
	Degraded string   `json:"degraded,omitempty"`
	Err      string   `json:"error,omitempty"`
	// Trace is the hex trace id of the arrival that produced this
	// delivery (omitted when untraced): the subscriber-side key into
	// GET /v1/tracez?trace=<id>. Old clients ignore the extra field;
	// old servers simply never emit it.
	Trace string `json:"trace,omitempty"`
}

// JSONCodec is the result codec: the one encoding of a delivery on the
// wire ("json", the only name a codec request field accepts).
type JSONCodec struct{}

// AppendResult appends one delivery for registration id to dst and
// returns the extended slice, like the standard library's Append
// functions: dst is the connection's frame buffer, kept between
// deliveries, so a frame allocates nothing of its own. On an error what
// was appended is discarded. The frame is a WireResult as encoding/json
// renders it with HTML escaping off — result items are XML, and with it
// on every '<' and '>' of theirs would travel as six bytes — written by
// hand, field by field, from res.Serials where the result carries them
// (TestResultFrameGolden and FuzzResultFrame hold it to the library's
// bytes).
func (JSONCodec) AppendResult(dst []byte, id int64, res Result) ([]byte, error) {
	dst = append(dst, `{"type":"result","id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, `,"at":"`...)
	dst = res.At.AppendFormat(dst, time.RFC3339Nano) // digits and "-:.TZ+": nothing to escape
	dst = append(dst, `","delta":[`...)
	carried := len(res.Serials) == len(res.Delta)
	for i, it := range res.Delta {
		if i > 0 {
			dst = append(dst, ',')
		}
		if carried {
			dst = appendJSONString(dst, res.Serials[i])
		} else {
			dst = appendJSONString(dst, inc.ItemSerial(it))
		}
	}
	dst = append(dst, ']')
	if res.Degraded != "" {
		dst = appendJSONString(append(dst, `,"degraded":`...), res.Degraded)
	}
	if res.Err != nil {
		if msg := res.Err.Error(); msg != "" {
			dst = appendJSONString(append(dst, `,"error":`...), msg)
		}
	}
	if res.TraceID != 0 {
		dst = append(dst, `,"trace":"`...)
		var hex [16]byte
		digits := strconv.AppendUint(hex[:0], res.TraceID, 16)
		dst = append(dst, "0000000000000000"[len(digits):]...)
		dst = append(append(dst, digits...), '"')
	}
	return append(dst, '}'), nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping off: '"', '\\' and control bytes escaped (the five
// with a short form use it), U+2028 and U+2029 escaped, invalid UTF-8
// replaced by U+FFFD, everything else — markup included — as it is.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			// at most one rune's bytes, converted on the stack
			c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= 0x20 && b != '"' && b != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b', '\t', '\n', '\f', '\r': // 8, 9, 10, 12, 13
			dst = append(dst, '\\', "btn.fr"[b-'\b'])
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
