package xmldom

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TokenType discriminates tokenizer output.
type TokenType uint8

const (
	// StartElementTok is <name attr="v" ...> (SelfClosing when <.../>).
	StartElementTok TokenType = iota
	// EndElementTok is </name>.
	EndElementTok
	// TextTok is character data with entities resolved.
	TextTok
	// CommentTok is <!-- ... -->.
	CommentTok
	// ProcInstTok is <?target data?>.
	ProcInstTok
	// DirectiveTok is <!DOCTYPE ...> or other <!...> directives (skipped
	// by the parser but surfaced for completeness).
	DirectiveTok
)

// Token is one lexical event. Its strings are substrings of the
// tokenizer's input wherever the input spells them out literally; only a
// value containing an entity reference is a fresh string.
type Token struct {
	Type TokenType
	Name string // element tag / PI target
	Data string // text, comment, directive or PI payload
	// Attrs is a view of the tokenizer's attribute buffer: valid until the
	// next Next, which reads the next start tag's attributes into it.
	Attrs       []Attr
	SelfClosing bool
	// Offset is the byte offset of the token's first byte in the input;
	// Tokenizer.Position turns it into line:col when an error needs one.
	Offset int
}

// Tokenizer lexes XML held in memory. It never looks past the end of the
// construct it is asked for, so several top-level elements can be pulled
// from one input back to back.
//
// The input is a string, and tokens (and so the nodes built from them)
// share it: whoever hands a Tokenizer bytes from a buffer it means to
// reuse converts them to a string first, and that conversion is the only
// copy decoding makes.
type Tokenizer struct {
	src string
	pos int
	err error
	// attrs holds the last start tag's attributes (Token.Attrs); kept from
	// one tag, and one input, to the next.
	attrs []Attr
}

// reset points the tokenizer at a new input, keeping its attribute buffer.
func (z *Tokenizer) reset(src string) {
	*z = Tokenizer{src: src, attrs: z.attrs[:0]}
}

// Position converts a byte offset of the input into a 1-based line and
// byte column. It scans the input, so it is for building errors only.
func (z *Tokenizer) Position(offset int) (line, col int) {
	before := z.src[:offset]
	return 1 + strings.Count(before, "\n"), offset - strings.LastIndexByte(before, '\n')
}

// errAt builds a syntax error carrying the position of offset.
func (z *Tokenizer) errAt(offset int, format string, args ...any) error {
	line, col := z.Position(offset)
	return fmt.Errorf("xml: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// syntaxErr reports an error at the current position: just past whatever
// the tokenizer consumed before giving up.
func (z *Tokenizer) syntaxErr(format string, args ...any) error {
	return z.errAt(z.pos, format, args...)
}

// Next returns the next token. At end of input it returns io.EOF. A
// syntax error is sticky.
func (z *Tokenizer) Next() (Token, error) {
	if z.err != nil {
		return Token{}, z.err
	}
	tok, err := z.next()
	if err != nil && err != io.EOF {
		z.err = err
	}
	return tok, err
}

// take consumes one byte and reports whether it was b; at end of input
// nothing is consumed.
func (z *Tokenizer) take(b byte) bool {
	if z.pos >= len(z.src) {
		return false
	}
	z.pos++
	return z.src[z.pos-1] == b
}

// until consumes input up to and including the next occurrence of end and
// returns what lay before it; without one it consumes everything.
func (z *Tokenizer) until(end string) (string, bool) {
	rest := z.src[z.pos:]
	i := strings.Index(rest, end)
	if i < 0 {
		z.pos = len(z.src)
		return "", false
	}
	z.pos += i + len(end)
	return rest[:i], true
}

func (z *Tokenizer) next() (Token, error) {
	start := z.pos
	if start >= len(z.src) {
		return Token{}, io.EOF
	}
	if z.src[start] != '<' {
		// character data up to the next '<'
		end := strings.IndexByte(z.src[start:], '<')
		if end < 0 {
			end = len(z.src) - start
		}
		z.pos = start + end
		text, derr := decodeEntities(z.src[start:z.pos])
		if derr != nil {
			return Token{}, z.syntaxErr("%v", derr)
		}
		return Token{Type: TextTok, Data: text, Offset: start}, nil
	}
	z.pos++
	if z.pos >= len(z.src) {
		return Token{}, z.syntaxErr("unexpected EOF after '<'")
	}
	switch z.src[z.pos] {
	case '/':
		z.pos++
		name, err := z.readName()
		if err != nil {
			return Token{}, err
		}
		z.skipSpace()
		if !z.take('>') {
			return Token{}, z.syntaxErr("malformed end tag </%s", name)
		}
		return Token{Type: EndElementTok, Name: name, Offset: start}, nil
	case '!':
		z.pos++
		return z.readBang(start)
	case '?':
		z.pos++
		return z.readProcInst(start)
	default:
		return z.readStartElement(start)
	}
}

func (z *Tokenizer) readStartElement(start int) (Token, error) {
	name, err := z.readName()
	if err != nil {
		return Token{}, err
	}
	tok := Token{Type: StartElementTok, Name: name, Offset: start}
	attrs := z.attrs[:0]
	for {
		z.skipSpace()
		if z.pos >= len(z.src) {
			return Token{}, z.syntaxErr("unexpected EOF in <%s>", name)
		}
		switch z.src[z.pos] {
		case '>':
			z.pos++
		case '/':
			z.pos++
			if !z.take('>') {
				return Token{}, z.syntaxErr("expected '>' after '/' in <%s>", name)
			}
			tok.SelfClosing = true
		default:
			attr, err := z.readAttr()
			if err != nil {
				return Token{}, err
			}
			attrs = append(attrs, attr)
			continue
		}
		z.attrs = attrs
		if len(attrs) > 0 {
			tok.Attrs = attrs
		}
		return tok, nil
	}
}

func (z *Tokenizer) readAttr() (Attr, error) {
	name, err := z.readName()
	if err != nil {
		return Attr{}, err
	}
	z.skipSpace()
	if !z.take('=') {
		return Attr{}, z.syntaxErr("attribute %q missing '='", name)
	}
	z.skipSpace()
	var quote byte
	if z.pos < len(z.src) {
		quote = z.src[z.pos]
		z.pos++
	}
	if quote != '"' && quote != '\'' {
		return Attr{}, z.syntaxErr("attribute %q value must be quoted", name)
	}
	rest := z.src[z.pos:]
	end := strings.IndexByte(rest, quote)
	if end < 0 {
		z.pos = len(z.src)
		return Attr{}, z.syntaxErr("unterminated value for attribute %q", name)
	}
	z.pos += end + 1
	val, derr := decodeEntities(rest[:end])
	if derr != nil {
		return Attr{}, z.syntaxErr("attribute %q: %v", name, derr)
	}
	return Attr{Name: name, Value: val}, nil
}

// readBang reads what follows "<!": a comment, a CDATA section or a
// directive.
func (z *Tokenizer) readBang(start int) (Token, error) {
	switch rest := z.src[z.pos:]; {
	case strings.HasPrefix(rest, "--"):
		z.pos += 2
		data, ok := z.until("-->")
		if !ok {
			return Token{}, z.syntaxErr("unterminated comment")
		}
		return Token{Type: CommentTok, Data: data, Offset: start}, nil
	case strings.HasPrefix(rest, "[CDATA["):
		z.pos += 7
		data, ok := z.until("]]>")
		if !ok {
			return Token{}, z.syntaxErr("unterminated CDATA section")
		}
		return Token{Type: TextTok, Data: data, Offset: start}, nil
	}
	// directive: read to the matching '>', tracking nested <...> (DOCTYPE
	// internal subsets)
	depth := 1
	for i := z.pos; i < len(z.src); i++ {
		switch z.src[i] {
		case '<':
			depth++
		case '>':
			if depth--; depth == 0 {
				data := z.src[z.pos:i]
				z.pos = i + 1
				return Token{Type: DirectiveTok, Data: data, Offset: start}, nil
			}
		}
	}
	z.pos = len(z.src)
	return Token{}, z.syntaxErr("unterminated directive")
}

func (z *Tokenizer) readProcInst(start int) (Token, error) {
	name, err := z.readName()
	if err != nil {
		return Token{}, err
	}
	data, ok := z.until("?>")
	if !ok {
		return Token{}, z.syntaxErr("unterminated processing instruction")
	}
	return Token{Type: ProcInstTok, Name: name, Data: strings.TrimSpace(data), Offset: start}, nil
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
}

func (z *Tokenizer) readName() (string, error) {
	start := z.pos
	for z.pos < len(z.src) && isNameByte(z.src[z.pos], z.pos == start) {
		z.pos++
	}
	if z.pos == start {
		return "", z.syntaxErr("expected a name")
	}
	return z.src[start:z.pos], nil
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// isNameByte accepts the name characters used by the wire format: letters,
// digits (non-initial), and - _ : . High (multi-byte UTF-8) bytes are
// accepted so non-ASCII tags pass through opaquely.
func isNameByte(b byte, initial bool) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
		return true
	case b >= 0x80:
		return true
	case initial:
		return false
	case b >= '0' && b <= '9', b == '-', b == '.':
		return true
	}
	return false
}

// decodeEntities resolves the predefined entities and numeric character
// references. A string without any is returned as it is, not copied.
func decodeEntities(s string) (string, error) {
	if strings.IndexByte(s, '&') < 0 {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("unterminated entity reference")
		}
		ent := s[i+1 : i+semi]
		switch ent {
		case "amp":
			sb.WriteByte('&')
		case "lt":
			sb.WriteByte('<')
		case "gt":
			sb.WriteByte('>')
		case "apos":
			sb.WriteByte('\'')
		case "quot":
			sb.WriteByte('"')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				numStr, base := ent[1:], 10
				if len(numStr) > 1 && (numStr[0] == 'x' || numStr[0] == 'X') {
					numStr, base = numStr[1:], 16
				}
				n, err := strconv.ParseUint(numStr, base, 32)
				if err != nil || !utf8.ValidRune(rune(n)) {
					return "", fmt.Errorf("bad character reference &%s;", ent)
				}
				sb.WriteRune(rune(n))
			} else {
				return "", fmt.Errorf("unknown entity &%s;", ent)
			}
		}
		i += semi + 1
	}
	return sb.String(), nil
}
