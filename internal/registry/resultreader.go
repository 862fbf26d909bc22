package registry

import (
	"bytes"
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// resultReader reads result frames by hand into WireResults — the mirror
// of JSONCodec.AppendResult — and reads what json.Unmarshal reads. A
// Subscriber keeps one: every string of a frame is unescaped into the
// reader's kept buffer, the buffer becomes one string, and At and each
// Delta item are substrings of it, so a frame costs that string and the
// Delta slice.
//
// It is stricter than json.Unmarshal where a server never goes — a top
// level that is not an object, null for a field, a key given twice, a key
// that names a field in another case, an unknown value nested more than
// maxSkipDepth deep — and it never reads another value: FuzzResultFrameRead
// holds every frame it accepts to the library's reading of it. A key it
// does not know is skipped whatever its value, because newer servers add
// fields (as Trace once was).
type resultReader struct {
	b []byte // the frame being read
	i int    // the read position in b
	// buf is the kept buffer the frame's strings are unescaped into.
	buf []byte
	// items is where each delta item lies in buf.
	items []strSpan
}

// strSpan is the run [from, to) of resultReader.buf.
type strSpan struct{ from, to int }

// The WireResult fields, in wireFields order: a frame's named fields are a
// bit set of these.
const (
	fieldType = iota
	fieldID
	fieldAt
	fieldDelta
	fieldDegraded
	fieldError
	fieldTrace
)

// wireFields are WireResult's JSON keys.
var wireFields = [...]string{"type", "id", "at", "delta", "degraded", "error", "trace"}

// emptyDelta is what json.Unmarshal makes of "delta":[] — a non-nil slice
// of capacity zero, which no append can write through — shared by every
// frame that delivers nothing.
var emptyDelta = []string{}

// maxSkipDepth bounds how deep an unknown field's value may nest.
const maxSkipDepth = 64

// read reads one frame. What it returns shares nothing with frame.
func (r *resultReader) read(frame []byte) (WireResult, error) {
	if cap(r.buf) > wsMaxKeptWriteBuffer {
		r.buf, r.items = nil, nil // one outsized frame is not kept
	}
	r.b, r.i, r.buf, r.items = frame, 0, r.buf[:0], r.items[:0]
	var w WireResult
	var strs [len(wireFields)]strSpan
	named := 0
	r.space()
	err := r.list('{', '}', func() error {
		field, err := r.key()
		if err != nil {
			return err
		}
		if field >= 0 {
			if named&(1<<field) != 0 {
				return r.fail(fmt.Sprintf("%q given twice", wireFields[field]))
			}
			named |= 1 << field
		}
		switch field {
		case -1:
			return r.skip(0)
		case fieldID:
			w.ID, err = r.int64()
		case fieldDelta:
			err = r.list('[', ']', func() error {
				sp, err := r.str()
				if err == nil {
					r.items = append(r.items, sp)
				}
				return err
			})
		default:
			strs[field], err = r.str()
		}
		return err
	})
	if err != nil {
		return WireResult{}, err
	}
	if r.space(); r.i != len(r.b) {
		return WireResult{}, r.fail("data after the object")
	}
	s := string(r.buf)
	at := func(sp strSpan) string { return s[sp.from:sp.to] }
	w.Type, w.At, w.Degraded, w.Err, w.Trace = at(strs[fieldType]), at(strs[fieldAt]),
		at(strs[fieldDegraded]), at(strs[fieldError]), at(strs[fieldTrace])
	if named&(1<<fieldDelta) != 0 {
		w.Delta = emptyDelta
		if len(r.items) > 0 {
			w.Delta = make([]string, len(r.items))
			for k, sp := range r.items {
				w.Delta[k] = at(sp)
			}
		}
	}
	return w, nil
}

// list reads an object or an array, opened by open and closed by end,
// calling each at every member: at its key in an object — each reads the
// key, the ':' and the value —, at its value in an array.
func (r *resultReader) list(open, end byte, each func() error) error {
	if !r.take(open) {
		return r.fail(fmt.Sprintf("expected '%c'", open))
	}
	if r.space(); r.take(end) {
		return nil
	}
	for {
		if err := each(); err != nil {
			return err
		}
		if r.space(); r.take(end) {
			return nil
		}
		if !r.take(',') {
			return r.fail(fmt.Sprintf("expected ',' or '%c'", end))
		}
		r.space()
	}
}

func (r *resultReader) fail(what string) error {
	return fmt.Errorf("registry: malformed result frame at byte %d: %s", r.i, what)
}

// space skips JSON whitespace.
func (r *resultReader) space() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// take consumes c when it is next.
func (r *resultReader) take(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// key reads an object key and the ':' after it, and returns its field, or
// -1 for a key that names none.
func (r *resultReader) key() (int, error) {
	sp, err := r.str()
	if err != nil {
		return 0, err
	}
	k := r.buf[sp.from:sp.to]
	r.buf = r.buf[:sp.from] // a key is not part of the result
	field := -1
	for f, name := range wireFields {
		if string(k) == name {
			field = f
		} else if strings.EqualFold(string(k), name) {
			return 0, r.fail(fmt.Sprintf("key %q for %q", k, name))
		}
	}
	return field, r.colon()
}

// colon reads the ':' after a key.
func (r *resultReader) colon() error {
	if r.space(); !r.take(':') {
		return r.fail("expected ':'")
	}
	r.space()
	return nil
}

// str reads a string, unescaped as encoding/json unescapes it, onto buf
// and returns where it lies there.
func (r *resultReader) str() (strSpan, error) {
	if !r.take('"') {
		return strSpan{}, r.fail("expected a string")
	}
	from := len(r.buf)
	for {
		run := r.i
		for r.i < len(r.b) {
			if c := r.b[r.i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
				break
			}
			r.i++
		}
		r.buf = append(r.buf, r.b[run:r.i]...)
		if r.i == len(r.b) {
			return strSpan{}, r.fail("unterminated string")
		}
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return strSpan{from, len(r.buf)}, nil
		case c == '\\':
			if err := r.escape(); err != nil {
				return strSpan{}, err
			}
		case c < ' ':
			return strSpan{}, r.fail("control byte in a string")
		default:
			// a valid sequence stays as it is; each byte of an invalid one
			// becomes U+FFFD
			c, size := utf8.DecodeRune(r.b[r.i:])
			if c == utf8.RuneError && size == 1 {
				r.buf = utf8.AppendRune(r.buf, c)
			} else {
				r.buf = append(r.buf, r.b[r.i:r.i+size]...)
			}
			r.i += size
		}
	}
}

// escape reads the escape sequence at the read position onto buf: a
// surrogate pair is one rune, and any other surrogate U+FFFD.
func (r *resultReader) escape() error {
	if r.i+1 == len(r.b) {
		return r.fail("unterminated string")
	}
	switch c := r.b[r.i+1]; c {
	case '"', '\\', '/':
		r.buf = append(r.buf, c)
	case 'b':
		r.buf = append(r.buf, '\b')
	case 'f':
		r.buf = append(r.buf, '\f')
	case 'n':
		r.buf = append(r.buf, '\n')
	case 'r':
		r.buf = append(r.buf, '\r')
	case 't':
		r.buf = append(r.buf, '\t')
	case 'u':
		c := hex4(r.b[r.i:])
		if c < 0 {
			return r.fail("malformed \\u escape")
		}
		r.i += 6
		if utf16.IsSurrogate(c) {
			if pair := utf16.DecodeRune(c, hex4(r.b[r.i:])); pair != utf8.RuneError {
				c = pair
				r.i += 6
			} else {
				c = utf8.RuneError
			}
		}
		r.buf = utf8.AppendRune(r.buf, c)
		return nil
	default:
		return r.fail("unknown escape")
	}
	r.i += 2
	return nil
}

// hex4 returns the code unit of the \uXXXX at the start of b, or -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var c rune
	for _, h := range b[2:6] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return -1
		}
		c = c<<4 | rune(h)
	}
	return c
}

// int64 reads a JSON integer that fits an int64.
func (r *resultReader) int64() (int64, error) {
	neg := r.take('-')
	start := r.i
	var n uint64
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		n = n*10 + uint64(r.b[r.i]-'0')
		r.i++
	}
	digits := r.i - start
	switch {
	case digits == 0 || digits > 1 && r.b[start] == '0':
		return 0, r.fail("malformed number")
	case r.i < len(r.b) && (r.b[r.i] == '.' || r.b[r.i] == 'e' || r.b[r.i] == 'E'):
		return 0, r.fail("id is not an integer")
	case digits > 19 || !neg && n > 1<<63-1 || neg && n > 1<<63:
		return 0, r.fail("id out of range")
	case neg:
		return int64(-n), nil
	}
	return int64(n), nil
}

// skip reads past one JSON value of any kind, checking it as the library
// does.
func (r *resultReader) skip(depth int) error {
	if depth > maxSkipDepth {
		return r.fail("value nested too deep")
	}
	if r.i == len(r.b) {
		return r.fail("expected a value")
	}
	switch c := r.b[r.i]; {
	case c == '"':
		return r.skipString()
	case c == '{':
		return r.list('{', '}', func() error {
			if err := r.skipString(); err != nil {
				return err
			}
			if err := r.colon(); err != nil {
				return err
			}
			return r.skip(depth + 1)
		})
	case c == '[':
		return r.list('[', ']', func() error { return r.skip(depth + 1) })
	case c == '-' || '0' <= c && c <= '9':
		return r.number()
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
			r.i += len(lit)
			return nil
		}
	}
	return r.fail("expected a value")
}

// skipString reads past a string, checking it as str does.
func (r *resultReader) skipString() error {
	from := len(r.buf)
	_, err := r.str()
	r.buf = r.buf[:from]
	return err
}

// number reads past a JSON number.
func (r *resultReader) number() error {
	r.take('-')
	if !r.take('0') && r.digits() == 0 {
		return r.fail("malformed number")
	}
	if r.take('.') && r.digits() == 0 {
		return r.fail("malformed number")
	}
	if r.take('e') || r.take('E') {
		if !r.take('+') {
			r.take('-')
		}
		if r.digits() == 0 {
			return r.fail("malformed number")
		}
	}
	return nil
}

// digits reads past a run of decimal digits and returns its length.
func (r *resultReader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}
