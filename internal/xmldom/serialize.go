package xmldom

import (
	"bufio"
	"io"
	"strings"
)

// Sink is what the serializer writes to: the string and byte appends that
// strings.Builder, bytes.Buffer and bufio.Writer share. The first two
// cannot fail; a bufio.Writer keeps its first error for Flush.
type Sink interface {
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// Encode serializes the subtree compactly (no added whitespace) — the
// canonical wire form. Text and attribute values are escaped.
func (n *Node) Encode(w io.Writer) error { return encode(w, n, -1, false) }

// EncodeIndent serializes with two-space indentation for humans.
// Mixed-content elements (those with non-whitespace text children) are
// kept inline so text is not distorted.
func (n *Node) EncodeIndent(w io.Writer) error { return encode(w, n, 0, true) }

func encode(w io.Writer, n *Node, depth int, indent bool) error {
	sink, direct := w.(Sink)
	var bw *bufio.Writer
	if !direct {
		bw = bufio.NewWriter(w)
		sink = bw
	}
	writeNode(sink, n, depth, indent)
	if indent {
		_ = sink.WriteByte('\n')
	}
	if bw != nil {
		return bw.Flush()
	}
	return nil
}

// EncodeTo serializes the subtree compactly into a sink the caller is
// already writing to.
func (n *Node) EncodeTo(w Sink) { writeNode(w, n, -1, false) }

// String returns the compact serialization.
func (n *Node) String() string {
	var b strings.Builder
	writeNode(&b, n, -1, false)
	return b.String()
}

// IndentString returns the indented serialization.
func (n *Node) IndentString() string {
	var b strings.Builder
	writeNode(&b, n, 0, true)
	b.WriteByte('\n')
	return b.String()
}

func writeNode(w Sink, n *Node, depth int, indent bool) {
	switch n.Type {
	case DocumentNode:
		for i, c := range n.Children {
			if indent && i > 0 {
				w.WriteByte('\n')
			}
			writeNode(w, c, depth, indent)
		}
	case TextNode:
		writeEscaped(w, n.Data, false)
	case CommentNode:
		w.WriteString("<!--")
		w.WriteString(n.Data)
		w.WriteString("-->")
	case ProcInstNode:
		w.WriteString("<?")
		w.WriteString(n.Name)
		if n.Data != "" {
			w.WriteByte(' ')
			w.WriteString(n.Data)
		}
		w.WriteString("?>")
	case ElementNode:
		w.WriteByte('<')
		w.WriteString(n.Name)
		for _, a := range n.Attrs {
			w.WriteByte(' ')
			w.WriteString(a.Name)
			w.WriteString(`="`)
			writeEscaped(w, a.Value, true)
			w.WriteByte('"')
		}
		if len(n.Children) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
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
		w.WriteString("</")
		w.WriteString(n.Name)
		w.WriteByte('>')
	}
}

func writeIndent(w Sink, depth int) {
	w.WriteByte('\n')
	for range depth {
		w.WriteString("  ")
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
func writeEscaped(w Sink, s string, attr bool) {
	from := 0
	for i := 0; i < len(s); i++ {
		if esc := escapeOf(s[i], attr); esc != "" {
			w.WriteString(s[from:i])
			w.WriteString(esc)
			from = i + 1
		}
	}
	w.WriteString(s[from:])
}
