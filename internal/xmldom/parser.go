package xmldom

import (
	"fmt"
	"io"
	"strings"
)

// Parse reads a complete document from r: optional prolog
// (declaration/comments/DOCTYPE), exactly one document element, optional
// trailing comments. Whitespace-only text between markup outside elements
// is dropped. The input is read to its end first; parsing itself is
// ParseString's.
func Parse(r io.Reader) (*Node, error) {
	src, err := readString(r)
	if err != nil {
		return nil, err
	}
	return ParseString(src)
}

// readString reads r to its end into one string.
func readString(r io.Reader) (string, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ParseString parses a document from a string. The tree's names, attribute
// values and text are substrings of s wherever s spells them out literally,
// so the tree keeps s alive — and never anything else: a caller that read s
// into a buffer it reuses has already copied it by making the string.
func ParseString(s string) (*Node, error) {
	p := parser{z: Tokenizer{src: s}}
	return p.parseDoc()
}

// MustParseString parses or panics; for literals in tests.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// ParseElement returns the first complete element of s, skipping
// whitespace, comments and PIs before it and ignoring whatever follows —
// the shape of one frame on the wire or in a segment file. It shares s the
// way ParseString does.
func ParseElement(s string) (*Node, error) {
	p := parser{z: Tokenizer{src: s}}
	return p.readElement()
}

// parser builds trees from a tokenizer's events.
type parser struct {
	z Tokenizer
	// open is the stack of children collected for the elements being
	// built: an element's children sit above its parent's until its end
	// tag, when they are copied out exactly sized.
	open []*Node
}

func (p *parser) errAt(tok Token, format string, args ...any) error {
	return p.z.errAt(tok.Offset, format, args...)
}

func (p *parser) parseDoc() (*Node, error) {
	doc := NewDocument()
	sawRoot := false
	for {
		tok, err := p.z.Next()
		if err == io.EOF {
			if !sawRoot {
				return nil, fmt.Errorf("xml: no document element")
			}
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok.Type {
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return nil, p.errAt(tok, "character data outside document element")
			}
		case CommentTok:
			doc.AppendChild(NewComment(tok.Data))
		case ProcInstTok:
			doc.AppendChild(&Node{Type: ProcInstNode, Name: tok.Name, Data: tok.Data})
		case DirectiveTok:
			// prolog directives are skipped
		case StartElementTok:
			if sawRoot {
				return nil, p.errAt(tok, "multiple document elements")
			}
			sawRoot = true
			el, err := p.parseElement(tok)
			if err != nil {
				return nil, err
			}
			doc.AppendChild(el)
		case EndElementTok:
			return nil, p.errAt(tok, "unexpected </%s>", tok.Name)
		}
	}
}

// parseElement builds the element whose start tag is start, consuming up
// to and including its end tag.
func (p *parser) parseElement(start Token) (*Node, error) {
	el := &Node{Type: ElementNode, Name: start.Name, Attrs: start.Attrs}
	if start.SelfClosing {
		return el, nil
	}
	if p.open == nil {
		p.open = make([]*Node, 0, 16)
	}
	base := len(p.open)
	for {
		tok, err := p.z.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("xml: unexpected EOF inside <%s>", start.Name)
		}
		if err != nil {
			return nil, err
		}
		var child *Node
		switch tok.Type {
		case TextTok:
			if tok.Data == "" {
				continue
			}
			child = NewText(tok.Data)
		case CommentTok:
			child = NewComment(tok.Data)
		case ProcInstTok:
			child = &Node{Type: ProcInstNode, Name: tok.Name, Data: tok.Data}
		case DirectiveTok:
			continue
		case StartElementTok:
			if child, err = p.parseElement(tok); err != nil {
				return nil, err
			}
		case EndElementTok:
			if tok.Name != start.Name {
				return nil, p.errAt(tok, "</%s> does not match <%s>", tok.Name, start.Name)
			}
			if kids := p.open[base:]; len(kids) > 0 {
				el.Children = make([]*Node, len(kids))
				copy(el.Children, kids)
				p.open = p.open[:base]
			}
			return el, nil
		}
		p.open = append(p.open, child)
	}
}

// readElement returns the next complete top-level element, or io.EOF when
// the input is exhausted at an element boundary.
func (p *parser) readElement() (*Node, error) {
	p.open = p.open[:0] // an element that failed to parse leaves its children behind
	for {
		tok, err := p.z.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Type {
		case StartElementTok:
			return p.parseElement(tok)
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return nil, p.errAt(tok, "stray character data between stream elements")
			}
		case EndElementTok:
			return nil, p.errAt(tok, "stray </%s> between stream elements", tok.Name)
		default:
			// skip comments, PIs, directives
		}
	}
}

// StreamDecoder pulls complete top-level elements one at a time from an
// input holding any number of them — a fragment file. Whitespace, comments
// and PIs between elements are skipped. The input is read to its end at
// the first ReadElement.
type StreamDecoder struct {
	r io.Reader
	p parser
}

// NewStreamDecoder wraps r.
func NewStreamDecoder(r io.Reader) *StreamDecoder { return &StreamDecoder{r: r} }

// ReadElement returns the next complete element, or io.EOF when the input
// is exhausted at an element boundary.
func (d *StreamDecoder) ReadElement() (*Node, error) {
	if d.r != nil {
		src, err := readString(d.r)
		if err != nil {
			return nil, err
		}
		d.r, d.p.z.src = nil, src
	}
	return d.p.readElement()
}
