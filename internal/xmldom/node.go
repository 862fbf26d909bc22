// Package xmldom provides the XML substrate for the fragmented-stream
// system: a compact document tree, a tokenizer over in-memory input whose
// tokens — and so the trees built from them — are substrings of that input
// (a frame is decoded in place, not copied name by name), a
// recursive-descent parser, and a serializer.
//
// The tree is deliberately simple — elements, attributes, text and
// comments, no namespace resolution — because the wire format of the
// paper's system is plain prefixed names (e.g. <stream:structure>) treated
// as opaque tags.
//
// Ownership: a node may be written (SetAttr, AppendChild, …) only by the
// code that constructed it, and only until it is handed to anyone else.
// From then on it is immutable and may be shared structurally: one subtree
// can sit under any number of parents at once (a stored filler payload
// under every result that mentions it), which is why nodes carry no parent
// link. Clone is the one way to get a private, writable tree. See
// "Node ownership and sharing" in DESIGN.md.
package xmldom

import "strings"

// NodeType discriminates tree nodes.
type NodeType uint8

const (
	// DocumentNode is the synthetic root produced by Parse; its children
	// are the top-level comments/PIs and the single document element.
	DocumentNode NodeType = iota
	// ElementNode is a tagged element.
	ElementNode
	// TextNode is character data (entity references already resolved).
	TextNode
	// CommentNode is a <!-- --> comment.
	CommentNode
	// ProcInstNode is a processing instruction (<?target data?>).
	ProcInstNode
)

// Attr is a single attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is a node of the document tree. Fields are exported for direct
// construction in tests; use the constructors for common cases.
type Node struct {
	Type     NodeType
	Name     string // element tag or PI target
	Data     string // text/comment content
	Attrs    []Attr
	Children []*Node
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Type: DocumentNode} }

// NewElement returns an element with the given tag.
func NewElement(name string) *Node { return &Node{Type: ElementNode, Name: name} }

// NewText returns a text node.
func NewText(data string) *Node { return &Node{Type: TextNode, Data: data} }

// NewComment returns a comment node.
func NewComment(data string) *Node { return &Node{Type: CommentNode, Data: data} }

// Elem builds an element with attributes given as alternating name/value
// pairs followed by child nodes — a convenience for tests and generators.
func Elem(name string, attrs []Attr, children ...*Node) *Node {
	e := NewElement(name)
	e.Attrs = append(e.Attrs, attrs...)
	for _, c := range children {
		e.AppendChild(c)
	}
	return e
}

// TextElem builds <name>text</name>.
func TextElem(name, text string) *Node {
	e := NewElement(name)
	e.AppendChild(NewText(text))
	return e
}

// AppendChild attaches c as the last child of n. It writes n only: c may
// be a shared subtree.
func (n *Node) AppendChild(c *Node) *Node {
	n.Children = append(n.Children, c)
	return n
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) { return LookupAttr(n.Attrs, name) }

// LookupAttr returns the value of the named attribute in attrs.
func LookupAttr(attrs []Attr, name string) (string, bool) {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute value or the default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets or replaces the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Root returns the document element of a document node, or n itself when n
// is already an element.
func (n *Node) Root() *Node {
	if n.Type != DocumentNode {
		return n
	}
	for _, c := range n.Children {
		if c.Type == ElementNode {
			return c
		}
	}
	return nil
}

// ElementChildren returns the element children, allocating only on demand.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ChildElements returns the element children with the given tag.
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child with the given tag.
func (n *Node) FirstChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Descendants appends to out every descendant element (document order,
// self excluded) with the given tag; "*" matches any tag.
func (n *Node) Descendants(name string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			if c.Type == ElementNode {
				if name == "*" || c.Name == name {
					out = append(out, c)
				}
				walk(c)
			}
		}
	}
	walk(n)
	return out
}

// Walk visits n and every descendant in document order; returning false
// from the visitor prunes that subtree.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Text returns the concatenation of all descendant text nodes.
func (n *Node) Text() string {
	if n.Type == TextNode {
		return n.Data
	}
	if len(n.Children) == 1 && n.Children[0].Type == TextNode {
		return n.Children[0].Data // <price>40</price>: the text as it stands
	}
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			b.WriteString(m.Data)
		}
		return true
	})
	return b.String()
}

// TrimmedText is Text with surrounding whitespace removed.
func (n *Node) TrimmedText() string { return strings.TrimSpace(n.Text()) }

// Clone returns a deep copy of the subtree: a private tree the caller may
// write, sharing nothing with n.
func (n *Node) Clone() *Node {
	c := n.CloneShallow()
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// CloneShallow returns a new childless node with n's type, name, data and
// a private copy of its attributes — the node copy-on-write rebuilds start
// from: the caller attaches the (possibly shared) children.
func (n *Node) CloneShallow() *Node {
	c := &Node{Type: n.Type, Name: n.Name, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	return c
}

// ShallowSize approximates the in-memory footprint of the node itself —
// name, data and attributes plus per-node overhead — excluding children.
// Resource budgets use it to charge materialization work as trees are
// built element by element.
func (n *Node) ShallowSize() int {
	size := 48 + len(n.Name) + len(n.Data) // struct + slice headers, roughly
	for _, a := range n.Attrs {
		size += AttrSize(a.Name, len(a.Value))
	}
	return size
}

// AttrSize is what an attribute named name with a value n bytes long adds
// to its element's ShallowSize.
func AttrSize(name string, n int) int { return len(name) + n + 16 }

// TreeSize approximates the in-memory footprint of the whole subtree.
func (n *Node) TreeSize() int {
	size := n.ShallowSize()
	for _, c := range n.Children {
		size += c.TreeSize()
	}
	return size
}

// Equal reports deep structural equality. Attribute order
// is significant (the wire format is deterministic).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Type != o.Type || n.Name != o.Name || n.Data != o.Data ||
		len(n.Attrs) != len(o.Attrs) || len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Attrs {
		if n.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}
