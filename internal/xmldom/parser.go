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
	var d Decoder
	doc, err := d.ScanDocument(s)
	if err != nil {
		return nil, err
	}
	return doc.Build(), nil
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
	var d Decoder
	return d.Element(s)
}

// Decoder parses XML held in memory. It builds a tree in three exactly
// sized arrays — the nodes, their attributes, their child pointers — and
// every node's Attrs and Children is a window of one of them with its
// capacity clipped, so an append to one node's list reallocates instead of
// writing a neighbour's. What parsing needs on the way — a record per
// node, the attributes, the children of the elements still open — is
// scratch the Decoder keeps from one call to the next: a Decoder that reads
// every frame of a connection allocates the three arrays per frame and
// nothing else. A Decoder serves one goroutine; it is never shared.
type Decoder struct {
	z Tokenizer
	// recs holds the nodes parsed since the last reset in document order,
	// so a node's subtree is the run of records from it to its end.
	recs []rec
	// attrs holds the attributes of recs, each element's a run.
	attrs []Attr
	// kids holds the children of closed elements, each element's a run.
	kids []int32
	// open holds the children collected for the elements being parsed: an
	// element's children sit above its parent's until its end tag.
	open []int32
}

// rec is a node in a Decoder's scratch.
type rec struct {
	typ         NodeType
	end         int32 // one past the last record of the node's subtree
	name, data  string
	attrs, kids span // the node's runs of Decoder.attrs and Decoder.kids
	text        span // where the node's text lies in the input (Scanned.Span)
}

// span is the run [from, to) of a scratch array.
type span struct{ from, to int32 }

func (s span) len() int { return int(s.to - s.from) }

// keptRecords bounds the scratch a Decoder keeps between calls: a tree of
// more nodes or attributes is parsed in scratch of its own, so one
// outsized frame does not stay allocated for as long as its connection
// lives. 1 024 records are 64 KiB, what a read loop keeps of its frame
// buffer.
const keptRecords = 1024

// Element is ParseElement on the Decoder's scratch.
func (d *Decoder) Element(s string) (*Node, error) {
	el, err := d.Scan(s)
	if err != nil {
		return nil, err
	}
	return el.Build(), nil
}

// Scan parses the first complete element of s as ParseElement does, into
// the Decoder's scratch, and builds nothing.
func (d *Decoder) Scan(s string) (Scanned, error) {
	d.z.reset(s)
	d.clear()
	return d.nextElement()
}

// ScanDocument parses s as ParseString does, into the Decoder's scratch,
// and returns the document node, whose one element child is the document
// element. It builds nothing.
func (d *Decoder) ScanDocument(s string) (Scanned, error) {
	d.z.reset(s)
	d.clear()
	return d.document()
}

// Reset lets go of the last input: the scratch keeps no string of it, and
// scratch grown past keptRecords is dropped, so a Decoder kept idle — in a
// pool — holds neither a frame nor more than a frame's worth of records.
func (d *Decoder) Reset() {
	clear(d.recs)
	clear(d.attrs)
	clear(d.z.attrs[:cap(d.z.attrs)])
	d.z.reset("")
	d.clear()
}

// clear empties the scratch for the next tree.
func (d *Decoder) clear() {
	if cap(d.recs) > keptRecords || cap(d.attrs) > keptRecords {
		d.recs, d.attrs, d.kids, d.open, d.z.attrs = nil, nil, nil, nil, nil
	}
	d.recs, d.attrs, d.kids, d.open = d.recs[:0], d.attrs[:0], d.kids[:0], d.open[:0]
}

func (d *Decoder) errAt(tok Token, format string, args ...any) error {
	return d.z.errAt(tok.Offset, format, args...)
}

func (d *Decoder) document() (Scanned, error) {
	d.recs = append(d.recs, rec{typ: DocumentNode, text: span{0, int32(len(d.z.src))}})
	sawRoot := false
	for {
		tok, err := d.z.Next()
		if err == io.EOF {
			if !sawRoot {
				return Scanned{}, fmt.Errorf("xml: no document element")
			}
			d.closeNode(0, 0)
			return Scanned{d, 0}, nil
		}
		if err != nil {
			return Scanned{}, err
		}
		switch tok.Type {
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return Scanned{}, d.errAt(tok, "character data outside document element")
			}
		case CommentTok:
			d.open = append(d.open, d.leaf(CommentNode, tok))
		case ProcInstTok:
			d.open = append(d.open, d.leaf(ProcInstNode, tok))
		case DirectiveTok:
			// prolog directives are skipped
		case StartElementTok:
			if sawRoot {
				return Scanned{}, d.errAt(tok, "multiple document elements")
			}
			sawRoot = true
			el, err := d.element(tok)
			if err != nil {
				return Scanned{}, err
			}
			d.open = append(d.open, el)
		case EndElementTok:
			return Scanned{}, d.errAt(tok, "unexpected </%s>", tok.Name)
		}
	}
}

// nextElement parses the next complete top-level element, or returns
// io.EOF when the input is exhausted at an element boundary.
func (d *Decoder) nextElement() (Scanned, error) {
	for {
		tok, err := d.z.Next()
		if err != nil {
			return Scanned{}, err
		}
		switch tok.Type {
		case StartElementTok:
			el, err := d.element(tok)
			if err != nil {
				return Scanned{}, err
			}
			return Scanned{d, el}, nil
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return Scanned{}, d.errAt(tok, "stray character data between stream elements")
			}
		case EndElementTok:
			return Scanned{}, d.errAt(tok, "stray </%s> between stream elements", tok.Name)
		default:
			// skip comments, PIs, directives
		}
	}
}

// element parses the element whose start tag is start, up to and
// including its end tag, and returns its record.
func (d *Decoder) element(start Token) (int32, error) {
	el := int32(len(d.recs))
	from := len(d.attrs)
	d.attrs = append(d.attrs, start.Attrs...) // before Next reuses them
	d.recs = append(d.recs, rec{typ: ElementNode, name: start.Name, attrs: span{int32(from), int32(len(d.attrs))},
		text: span{int32(start.Offset), int32(d.z.pos)}})
	base := len(d.open)
	if start.SelfClosing {
		d.closeNode(el, base)
		return el, nil
	}
	for {
		tok, err := d.z.Next()
		if err == io.EOF {
			return 0, fmt.Errorf("xml: unexpected EOF inside <%s>", start.Name)
		}
		if err != nil {
			return 0, err
		}
		var child int32
		switch tok.Type {
		case TextTok:
			if tok.Data == "" {
				continue
			}
			child = d.leaf(TextNode, tok)
		case CommentTok:
			child = d.leaf(CommentNode, tok)
		case ProcInstTok:
			child = d.leaf(ProcInstNode, tok)
		case DirectiveTok:
			continue
		case StartElementTok:
			if child, err = d.element(tok); err != nil {
				return 0, err
			}
		case EndElementTok:
			if tok.Name != start.Name {
				return 0, d.errAt(tok, "</%s> does not match <%s>", tok.Name, start.Name)
			}
			d.closeNode(el, base)
			d.recs[el].text.to = int32(d.z.pos)
			return el, nil
		}
		d.open = append(d.open, child)
	}
}

// leaf records tok, which the tokenizer has just read, as a node that has
// no attributes and no children.
func (d *Decoder) leaf(typ NodeType, tok Token) int32 {
	i := int32(len(d.recs))
	d.recs = append(d.recs, rec{typ: typ, name: tok.Name, data: tok.Data, end: i + 1,
		text: span{int32(tok.Offset), int32(d.z.pos)}})
	return i
}

// closeNode gives node i the children collected above base and ends its
// subtree.
func (d *Decoder) closeNode(i int32, base int) {
	from := len(d.kids)
	d.kids = append(d.kids, d.open[base:]...)
	d.open = d.open[:base]
	r := &d.recs[i]
	r.kids = span{int32(from), int32(len(d.kids))}
	r.end = int32(len(d.recs))
}

// Scanned is a node parsed into a Decoder's scratch by Scan or
// ScanDocument. It is valid until the Decoder's next call; Build makes the
// tree that outlives it.
type Scanned struct {
	d *Decoder
	i int32
}

// Name returns the node's tag.
func (e Scanned) Name() string { return e.d.recs[e.i].name }

// Attrs returns the node's attributes: a view of the Decoder's scratch.
func (e Scanned) Attrs() []Attr {
	r := &e.d.recs[e.i]
	return e.d.attrs[r.attrs.from:r.attrs.to]
}

// OnlyElement returns how many element children the node has and, when it
// is exactly one, that child.
func (e Scanned) OnlyElement() (Scanned, int) {
	var only Scanned
	n := 0
	r := &e.d.recs[e.i]
	for _, k := range e.d.kids[r.kids.from:r.kids.to] {
		if e.d.recs[k].typ == ElementNode {
			only = Scanned{e.d, k}
			n++
		}
	}
	if n != 1 {
		only = Scanned{}
	}
	return only, n
}

// Children returns how many children the node has.
func (e Scanned) Children() int { return len(e.kids()) }

// Span returns where the node lies in the input it was scanned from, as
// byte offsets [from, to): an element from the '<' of its start tag to past
// the '>' of its end tag, a document the whole input.
func (e Scanned) Span() (from, to int) {
	t := e.d.recs[e.i].text
	return int(t.from), int(t.to)
}

// Source returns the node's text in the input: a substring, which outlives
// the Decoder's next call.
func (e Scanned) Source() string {
	from, to := e.Span()
	return e.d.z.src[from:to]
}

// Walk visits the node, when it is an element, and every element below it
// in document order; visit returning false skips that element's subtree.
// It builds nothing, and visit must not call the Decoder.
func (e Scanned) Walk(visit func(Scanned) bool) {
	recs := e.d.recs
	for j, end := e.i, recs[e.i].end; j < end; {
		if recs[j].typ == ElementNode && !visit(Scanned{e.d, j}) {
			j = recs[j].end
		} else {
			j++
		}
	}
}

// Build builds the node's subtree in three exactly sized arrays and
// returns its top: a tree that shares nothing with the Decoder but the
// input string its names and values are substrings of.
func (e Scanned) Build() *Node {
	nAttrs, nKids := e.sizes()
	n := len(e.kids())
	a := arena{
		nodes: make([]Node, 0, e.d.recs[e.i].end-e.i),
		attrs: make([]Attr, 0, nAttrs),
		kids:  make([]*Node, n, nKids),
	}
	return e.build(&a, a.kids[:n:n], true)
}

// BuildAfter builds the node as Build does, save its top: the top's
// attributes are attrs, not its own, and its children are the nodes of
// prefix, each the node itself where share says so of it and its place in
// prefix and a deep copy of it otherwise, followed by the node's own
// children. The tree shares attrs, the nodes share keeps and the input
// string, and nothing else: what it builds and copies lies in three
// arrays, as Build's tree does, and every list in it is exactly as long as
// its capacity.
func (e Scanned) BuildAfter(attrs []Attr, prefix []*Node, share func(i int, n *Node) bool) *Node {
	nAttrs, nKids := e.sizes()
	nAttrs -= e.d.recs[e.i].attrs.len()
	nNodes := int(e.d.recs[e.i].end - e.i)
	for i, p := range prefix {
		if !share(i, p) {
			p.Walk(func(n *Node) bool {
				nNodes++
				nAttrs += len(n.Attrs)
				nKids += len(n.Children)
				return true
			})
		}
	}
	n := len(prefix) + len(e.kids())
	a := arena{
		nodes: make([]Node, 0, nNodes),
		attrs: make([]Attr, 0, nAttrs),
		kids:  make([]*Node, n, len(prefix)+nKids),
	}
	list := a.kids[:n:n]
	top := e.build(&a, list[len(prefix):], false)
	for i, p := range prefix {
		if share(i, p) {
			list[i] = p
		} else {
			list[i] = a.copy(p)
		}
	}
	top.Attrs = attrs[:len(attrs):len(attrs)]
	top.Children = list
	return top
}

// arena is the three arrays a tree is built in, each filled up to its
// length and sized beforehand, so that a pointer into one stays put.
type arena struct {
	nodes []Node
	attrs []Attr
	kids  []*Node
}

// node returns the arena's next node.
func (a *arena) node() *Node {
	a.nodes = a.nodes[:len(a.nodes)+1]
	return &a.nodes[len(a.nodes)-1]
}

// children returns the arena's next n child pointers, a list exactly as
// long as its capacity.
func (a *arena) children(n int) []*Node {
	from := len(a.kids)
	a.kids = a.kids[:from+n]
	return a.kids[from : from+n : from+n]
}

// attributes copies list into the arena and returns the copy, exactly as
// long as its capacity.
func (a *arena) attributes(list []Attr) []Attr {
	from := len(a.attrs)
	a.attrs = append(a.attrs, list...)
	return a.attrs[from:len(a.attrs):len(a.attrs)]
}

// copy returns a deep copy of n in the arena.
func (a *arena) copy(n *Node) *Node {
	c := a.node()
	c.Type, c.Name, c.Data = n.Type, n.Name, n.Data
	if len(n.Attrs) > 0 {
		c.Attrs = a.attributes(n.Attrs)
	}
	if len(n.Children) > 0 {
		c.Children = a.children(len(n.Children))
		for i, k := range n.Children {
			c.Children[i] = a.copy(k)
		}
	}
	return c
}

// sizes counts the attributes and child pointers of the node's subtree.
func (e Scanned) sizes() (nAttrs, nKids int) {
	for _, r := range e.d.recs[e.i:e.d.recs[e.i].end] {
		nAttrs += r.attrs.len()
		nKids += r.kids.len()
	}
	return nAttrs, nKids
}

// kids returns the records of the node's children.
func (e Scanned) kids() []int32 {
	r := &e.d.recs[e.i]
	return e.d.kids[r.kids.from:r.kids.to]
}

// build builds the node's subtree in the arena: the top's children into
// top, a slot for each, and the top's attributes when topAttrs is set.
func (e Scanned) build(a *arena, top []*Node, topAttrs bool) *Node {
	d := e.d
	recs := d.recs[e.i:d.recs[e.i].end]
	base := len(a.nodes)
	a.nodes = a.nodes[:base+len(recs)]
	nodes := a.nodes[base:]
	for j := range int32(len(recs)) {
		r, n := &recs[j], &nodes[j]
		n.Type, n.Name, n.Data = r.typ, r.name, r.data
		if r.attrs.len() > 0 && (j > 0 || topAttrs) {
			n.Attrs = a.attributes(d.attrs[r.attrs.from:r.attrs.to])
		}
		switch {
		case r.kids.len() == 0:
		case j == 0:
			for c, k := range d.kids[r.kids.from:r.kids.to] {
				top[c] = &nodes[k-e.i]
			}
			n.Children = top[:len(top):len(top)]
		default:
			kids := a.children(r.kids.len())
			for c, k := range d.kids[r.kids.from:r.kids.to] {
				kids[c] = &nodes[k-e.i]
			}
			n.Children = kids
		}
	}
	return &nodes[0]
}

// StreamDecoder pulls complete top-level elements one at a time from an
// input holding any number of them — a fragment file. Whitespace, comments
// and PIs between elements are skipped. The input is read to its end at
// the first ReadElement.
type StreamDecoder struct {
	r io.Reader
	d Decoder
}

// NewStreamDecoder wraps r.
func NewStreamDecoder(r io.Reader) *StreamDecoder { return &StreamDecoder{r: r} }

// ReadElement returns the next complete element, or io.EOF when the input
// is exhausted at an element boundary.
func (s *StreamDecoder) ReadElement() (*Node, error) {
	if s.r != nil {
		src, err := readString(s.r)
		if err != nil {
			return nil, err
		}
		s.r = nil
		s.d.z.reset(src)
	}
	s.d.clear()
	el, err := s.d.nextElement()
	if err != nil {
		return nil, err
	}
	return el.Build(), nil
}
