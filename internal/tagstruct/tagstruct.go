// Package tagstruct implements the Tag Structure of §4.1: a structural
// summary of an XML stream that records, for every tag, its type
// (snapshot / temporal / event), a numeric id (tsid) used to annotate wire
// fragments, and the parent/child relationships that define all valid
// paths in the stream.
//
// The Tag Structure drives four things in the system: how a document is
// fragmented (fragments are cut at temporal and event tags), how XCQL path
// expressions are translated to cross holes (Figure 3), how wildcard paths
// are expanded, and how the temporal view is reconstructed without
// recursion (§5.1).
package tagstruct

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"xcql/internal/xmldom"
)

// TagType classifies a tag per §4.1.
type TagType uint8

const (
	// Snapshot tags are regular non-temporal elements, always embedded in
	// their parent fragment (or the static root).
	Snapshot TagType = iota
	// Temporal tags have a [vtFrom, vtTo] lifespan and are streamed as
	// separate filler fragments; a new version replaces the previous one.
	Temporal
	// Event tags have a single valid-time point and are streamed as
	// separate filler fragments that accumulate.
	Event
)

// String returns the wire spelling of the tag type.
func (t TagType) String() string {
	switch t {
	case Snapshot:
		return "snapshot"
	case Temporal:
		return "temporal"
	case Event:
		return "event"
	default:
		return fmt.Sprintf("TagType(%d)", uint8(t))
	}
}

// ParseTagType parses the wire spelling.
func ParseTagType(s string) (TagType, error) {
	switch s {
	case "snapshot":
		return Snapshot, nil
	case "temporal":
		return Temporal, nil
	case "event":
		return Event, nil
	default:
		return 0, fmt.Errorf("tagstruct: unknown tag type %q", s)
	}
}

// Tag is one node of the tag structure tree.
type Tag struct {
	Type     TagType
	ID       int // the tsid carried by wire fragments
	Name     string
	Children []*Tag
	Parent   *Tag
}

// IsFragmented reports whether elements with this tag travel as separate
// filler fragments (temporal and event tags do; snapshot tags are inline).
func (t *Tag) IsFragmented() bool { return t.Type == Temporal || t.Type == Event }

// Child returns the child tag with the given name, or nil.
func (t *Tag) Child(name string) *Tag {
	for _, c := range t.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Path returns the /-separated name path from the root to t.
func (t *Tag) Path() string {
	if t.Parent == nil {
		return "/" + t.Name
	}
	return t.Parent.Path() + "/" + t.Name
}

// Structure is a validated tag structure.
type Structure struct {
	Root *Tag
	byID map[int]*Tag
}

// New builds and validates a Structure from a root tag tree: ids must be
// unique and positive, names non-empty, and sibling names unique (the
// translation scheme addresses children by name).
func New(root *Tag) (*Structure, error) {
	if root == nil {
		return nil, fmt.Errorf("tagstruct: nil root")
	}
	s := &Structure{Root: root, byID: make(map[int]*Tag)}
	var walk func(t *Tag) error
	walk = func(t *Tag) error {
		if t.Name == "" {
			return fmt.Errorf("tagstruct: tag with empty name (id %d)", t.ID)
		}
		if t.ID <= 0 {
			return fmt.Errorf("tagstruct: tag %q has non-positive id %d", t.Name, t.ID)
		}
		if prev, dup := s.byID[t.ID]; dup {
			return fmt.Errorf("tagstruct: duplicate id %d (%q and %q)", t.ID, prev.Name, t.Name)
		}
		s.byID[t.ID] = t
		seen := make(map[string]bool, len(t.Children))
		for _, c := range t.Children {
			if seen[c.Name] {
				return fmt.Errorf("tagstruct: tag %q has duplicate child %q", t.Name, c.Name)
			}
			seen[c.Name] = true
			c.Parent = t
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return s, nil
}

// ByID returns the tag with the given tsid, or nil.
func (s *Structure) ByID(id int) *Tag { return s.byID[id] }

// Tags returns all tags sorted by id.
func (s *Structure) Tags() []*Tag {
	out := make([]*Tag, 0, len(s.byID))
	for _, t := range s.byID {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Named returns every tag with the given name anywhere in the structure,
// in id order. Used to expand descendant steps (//A) and to find the tsid
// set a QaC+ plan should scan.
func (s *Structure) Named(name string) []*Tag {
	var out []*Tag
	for _, t := range s.Tags() {
		if t.Name == name {
			out = append(out, t)
		}
	}
	return out
}

// NamedUnder returns every tag with the given name in the subtree rooted
// at base (self excluded), in preorder.
func (s *Structure) NamedUnder(base *Tag, name string) []*Tag {
	var out []*Tag
	var walk func(t *Tag)
	walk = func(t *Tag) {
		for _, c := range t.Children {
			if name == "*" || c.Name == name {
				out = append(out, c)
			}
			walk(c)
		}
	}
	if base != nil {
		walk(base)
	}
	return out
}

// FragmentedUnder returns every fragmented tag in the subtree rooted at
// base (self excluded), in preorder. A query that mentions base can see
// fillers stored under any of these ids — materializing base's subtree
// recurses through each fragmented descendant — so this is the relevance
// closure the incremental evaluator dirties per tag.
func (s *Structure) FragmentedUnder(base *Tag) []*Tag {
	var out []*Tag
	var walk func(t *Tag)
	walk = func(t *Tag) {
		for _, c := range t.Children {
			if c.IsFragmented() {
				out = append(out, c)
			}
			walk(c)
		}
	}
	if base != nil {
		walk(base)
	}
	return out
}

// wire representation ------------------------------------------------------

// WireRoot is the element name wrapping a serialized structure.
const WireRoot = "stream:structure"

// Parse reads the wire form:
//
//	<stream:structure>
//	  <tag type="snapshot" id="1" name="creditAccounts"> ... </tag>
//	</stream:structure>
func Parse(r io.Reader) (*Structure, error) {
	doc, err := xmldom.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromXML(doc.Root())
}

// ParseString parses the wire form from a string.
func ParseString(src string) (*Structure, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return FromXML(doc.Root())
}

// MustParseString parses or panics; for literals in tests and examples.
func MustParseString(src string) *Structure {
	s, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return s
}

// FromXML converts a parsed <stream:structure> (or a bare root <tag>)
// element into a validated Structure.
func FromXML(el *xmldom.Node) (*Structure, error) {
	if el == nil {
		return nil, fmt.Errorf("tagstruct: nil element")
	}
	rootTagEl := el
	if el.Name == WireRoot || el.Name == "structure" {
		kids := el.ChildElements("tag")
		if len(kids) != 1 {
			return nil, fmt.Errorf("tagstruct: %s must contain exactly one root <tag>, found %d", el.Name, len(kids))
		}
		rootTagEl = kids[0]
	}
	root, err := tagFromXML(rootTagEl)
	if err != nil {
		return nil, err
	}
	return New(root)
}

func tagFromXML(el *xmldom.Node) (*Tag, error) {
	if el.Name != "tag" {
		return nil, fmt.Errorf("tagstruct: expected <tag>, found <%s>", el.Name)
	}
	typStr, ok := el.Attr("type")
	if !ok {
		return nil, fmt.Errorf("tagstruct: <tag> missing type attribute")
	}
	typ, err := ParseTagType(typStr)
	if err != nil {
		return nil, err
	}
	idStr, ok := el.Attr("id")
	if !ok {
		return nil, fmt.Errorf("tagstruct: <tag> missing id attribute")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, fmt.Errorf("tagstruct: bad id %q: %v", idStr, err)
	}
	name, ok := el.Attr("name")
	if !ok {
		return nil, fmt.Errorf("tagstruct: <tag id=%d> missing name attribute", id)
	}
	t := &Tag{Type: typ, ID: id, Name: name}
	for _, c := range el.ChildElements("tag") {
		child, err := tagFromXML(c)
		if err != nil {
			return nil, err
		}
		t.Children = append(t.Children, child)
	}
	return t, nil
}

// ToXML serializes the structure to its wire element.
func (s *Structure) ToXML() *xmldom.Node {
	root := xmldom.NewElement(WireRoot)
	root.AppendChild(tagToXML(s.Root))
	return root
}

func tagToXML(t *Tag) *xmldom.Node {
	el := xmldom.NewElement("tag")
	el.SetAttr("type", t.Type.String())
	el.SetAttr("id", strconv.Itoa(t.ID))
	el.SetAttr("name", t.Name)
	for _, c := range t.Children {
		el.AppendChild(tagToXML(c))
	}
	return el
}

// String returns the indented wire form.
func (s *Structure) String() string { return s.ToXML().IndentString() }
