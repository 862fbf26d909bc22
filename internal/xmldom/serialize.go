package xmldom

import (
	"io"
	"strings"
	"unsafe"
)

// Encode serializes the subtree compactly (no added whitespace) — the
// canonical wire form. Text and attribute values are escaped.
func (n *Node) Encode(w io.Writer) error { return encode(w, n, -1, false) }

// EncodeIndent serializes with two-space indentation for humans.
// Mixed-content elements (those with non-whitespace text children) are
// kept inline so text is not distorted.
func (n *Node) EncodeIndent(w io.Writer) error { return encode(w, n, 0, true) }

func encode(out io.Writer, n *Node, depth int, indent bool) error {
	w := writer{buf: make([]byte, 0, flushAt+flushAt/4), out: out}
	writeNode(&w, n, depth, indent)
	if indent {
		w.byte('\n')
	}
	w.flush()
	return w.err
}

// AppendTo appends the compact serialization to dst.
func (n *Node) AppendTo(dst []byte) []byte {
	w := writer{buf: dst}
	writeNode(&w, n, -1, false)
	return w.buf
}

// String returns the compact serialization, written once into an
// allocation of its exact size (EncodedLen).
func (n *Node) String() string {
	b := n.AppendTo(make([]byte, 0, n.EncodedLen()))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// IndentString returns the indented serialization.
func (n *Node) IndentString() string {
	w := writer{}
	writeNode(&w, n, 0, true)
	w.byte('\n')
	return string(w.buf)
}

// EncodedLen is the length of the compact serialization: what String
// allocates.
func (n *Node) EncodedLen() int {
	switch n.Type {
	case DocumentNode:
		size := 0
		for _, c := range n.Children {
			size += c.EncodedLen()
		}
		return size
	case TextNode:
		return escapedLen(n.Data, false)
	case CommentNode:
		return len("<!---->") + len(n.Data)
	case ProcInstNode:
		size := len("<??>") + len(n.Name)
		if n.Data != "" {
			size += 1 + len(n.Data)
		}
		return size
	case ElementNode:
		size := 1 + len(n.Name)
		for _, a := range n.Attrs {
			size += len(` =""`) + len(a.Name) + escapedLen(a.Value, true)
		}
		if len(n.Children) == 0 {
			return size + len("/>")
		}
		size += len("></>") + len(n.Name)
		for _, c := range n.Children {
			size += c.EncodedLen()
		}
		return size
	}
	return 0
}

// flushAt is the size at which a writer with an out hands its buffer on.
const flushAt = 4096

// writer is what the serializer writes to: buf, which an encoder to an
// io.Writer hands to out, keeping the first error, each time it reaches
// flushAt. A concrete type, so that a writer on the caller's stack stays
// there: String allocates its bytes and nothing else.
type writer struct {
	buf []byte
	out io.Writer
	err error
}

func (w *writer) str(s string) { w.buf = append(w.buf, s...) }
func (w *writer) byte(b byte)  { w.buf = append(w.buf, b) }

func (w *writer) flush() {
	if w.out == nil || len(w.buf) == 0 {
		return
	}
	if w.err == nil {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

func writeNode(w *writer, n *Node, depth int, indent bool) {
	if w.out != nil && len(w.buf) >= flushAt {
		w.flush()
	}
	switch n.Type {
	case DocumentNode:
		for i, c := range n.Children {
			if indent && i > 0 {
				w.byte('\n')
			}
			writeNode(w, c, depth, indent)
		}
	case TextNode:
		writeEscaped(w, n.Data, false)
	case CommentNode:
		w.str("<!--")
		w.str(n.Data)
		w.str("-->")
	case ProcInstNode:
		w.str("<?")
		w.str(n.Name)
		if n.Data != "" {
			w.byte(' ')
			w.str(n.Data)
		}
		w.str("?>")
	case ElementNode:
		w.byte('<')
		w.str(n.Name)
		for _, a := range n.Attrs {
			w.byte(' ')
			w.str(a.Name)
			w.str(`="`)
			writeEscaped(w, a.Value, true)
			w.byte('"')
		}
		if len(n.Children) == 0 {
			w.str("/>")
			return
		}
		w.byte('>')
		if indent && !n.mixed() {
			for _, c := range n.Children {
				writeIndent(w, depth+1)
				writeNode(w, c, depth+1, indent)
			}
			writeIndent(w, depth)
		} else {
			for _, c := range n.Children {
				writeNode(w, c, depth+1, false)
			}
		}
		w.str("</")
		w.str(n.Name)
		w.byte('>')
	}
}

func writeIndent(w *writer, depth int) {
	w.byte('\n')
	for range depth {
		w.str("  ")
	}
}

// mixed reports whether the element has non-whitespace text children.
func (n *Node) mixed() bool {
	for _, c := range n.Children {
		if c.Type == TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

// escapeOf returns the reference that replaces b in character data, or in
// a double-quoted attribute value, and "" for a byte written as it is.
func escapeOf(b byte, attr bool) string {
	switch b {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	}
	if attr {
		switch b {
		case '"':
			return "&quot;"
		case '\n':
			return "&#10;"
		case '\t':
			return "&#9;"
		}
	}
	return ""
}

// writeEscaped writes s with its markup bytes replaced by references: the
// stretches between them go out as the substrings they are.
func writeEscaped(w *writer, s string, attr bool) {
	from := 0
	for i := 0; i < len(s); i++ {
		if esc := escapeOf(s[i], attr); esc != "" {
			w.str(s[from:i])
			w.str(esc)
			from = i + 1
		}
	}
	w.str(s[from:])
}

// escapedLen is the length of s as writeEscaped writes it.
func escapedLen(s string, attr bool) int {
	size := len(s)
	for i := 0; i < len(s); i++ {
		if esc := escapeOf(s[i], attr); esc != "" {
			size += len(esc) - 1
		}
	}
	return size
}
