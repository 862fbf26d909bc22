// Package xmark is a deterministic reimplementation of the XMark xmlgen
// auction-document generator (the workload of the paper's §7 evaluation),
// plus the tag structure that fragments auction documents for streaming
// and the three benchmark queries (Q1, Q2, Q5) the paper measures.
//
// The generator reproduces XMark's document shape — site / regions /
// categories / people / open_auctions / closed_auctions — with entity
// counts proportional to the published generator's (persons 25500·sf,
// items 21750·sf, open auctions 12000·sf, closed auctions 9750·sf,
// categories 1000·sf) and free-text payload sized so the generated files
// land near the paper's reported sizes (~27 KB at sf=0, ~5.8 MB at
// sf=0.05, ~11.8 MB at sf=0.1).
package xmark

import (
	"fmt"
	"strings"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Config controls generation.
type Config struct {
	// Scale is the XMark scaling factor; 0 produces the minimal document.
	Scale float64
	// Seed makes output deterministic; the zero seed is replaced by 1.
	Seed uint64
}

// rng is a SplitMix64 generator — tiny, fast, deterministic across Go
// versions (math/rand's stream is not guaranteed stable).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 1
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) pick(words []string) string { return words[r.intn(len(words))] }

var wordList = strings.Fields(`gold silver merchant harbor vessel cargo spice silk amber copper
quill ledger auction bidder reserve estate manor parcel lantern compass
anchor voyage market square guild charter scribe vault tariff bounty
ribbon velvet saffron indigo crimson ivory marble granite timber barley
falcon heron sparrow raven kestrel meadow orchard thicket brook summit`)

var cities = []string{"Arlington", "Paris", "Konstanz", "Potsdam", "Asilomar", "Izmir", "Toronto", "Kyoto"}
var countries = []string{"United States", "France", "Germany", "Japan", "Canada", "Turkey"}
var firstNames = []string{"John", "Jane", "Sujoe", "Leonidas", "Maria", "Wei", "Amara", "Tomas", "Ingrid", "Yuki"}
var lastNames = []string{"Smith", "Fegaras", "Bose", "Mueller", "Tanaka", "Rossi", "Dubois", "Novak", "Okafor", "Larsen"}

// region names, as in XMark.
var Regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

func (r *rng) sentence(words int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.pick(wordList))
	}
	return b.String()
}

func (r *rng) date(year int) time.Time {
	day := r.intn(334)
	sec := r.intn(86400)
	return time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(day)*24*time.Hour + time.Duration(sec)*time.Second)
}

// Counts returns the entity counts for a scaling factor, matching the
// published generator's proportions with small floors so sf=0 still
// produces a complete minimal document.
func Counts(scale float64) (persons, items, open, closed, categories int) {
	n := func(base float64, min int) int {
		v := int(base * scale)
		if v < min {
			return min
		}
		return v
	}
	return n(25500, 4), n(21750, 6), n(12000, 3), n(9750, 3), n(1000, 2)
}

// Generate builds the auction document.
func Generate(cfg Config) *xmldom.Node {
	r := newRNG(cfg.Seed)
	persons, items, open, closed, categories := Counts(cfg.Scale)

	site := xmldom.NewElement("site")

	regions := xmldom.NewElement("regions")
	site.AppendChild(regions)
	for ri, region := range Regions {
		regionEl := xmldom.NewElement(region)
		regions.AppendChild(regionEl)
		for i := ri; i < items; i += len(Regions) {
			regionEl.AppendChild(genItem(r, i, categories))
		}
	}

	cats := xmldom.NewElement("categories")
	site.AppendChild(cats)
	for i := 0; i < categories; i++ {
		c := xmldom.NewElement("category")
		c.SetAttr("id", fmt.Sprintf("category%d", i))
		c.AppendChild(xmldom.TextElem("name", r.sentence(2)))
		c.AppendChild(xmldom.TextElem("description", r.sentence(20+r.intn(30))))
		cats.AppendChild(c)
	}

	people := xmldom.NewElement("people")
	site.AppendChild(people)
	for i := 0; i < persons; i++ {
		people.AppendChild(genPerson(r, i))
	}

	openEl := xmldom.NewElement("open_auctions")
	site.AppendChild(openEl)
	for i := 0; i < open; i++ {
		openEl.AppendChild(genOpenAuction(r, i, persons, items))
	}

	closedEl := xmldom.NewElement("closed_auctions")
	site.AppendChild(closedEl)
	for i := 0; i < closed; i++ {
		closedEl.AppendChild(genClosedAuction(r, i, persons, items))
	}

	doc := xmldom.NewDocument()
	doc.AppendChild(site)
	return doc
}

func temporalAttrs(el *xmldom.Node, at time.Time, event bool) {
	from := at.Format(xtime.Layout)
	el.SetAttr("vtFrom", from)
	if event {
		el.SetAttr("vtTo", from)
	} else {
		el.SetAttr("vtTo", "now")
	}
}

func genItem(r *rng, i, categories int) *xmldom.Node {
	it := xmldom.NewElement("item")
	it.SetAttr("id", fmt.Sprintf("item%d", i))
	temporalAttrs(it, r.date(2002), false)
	it.AppendChild(xmldom.TextElem("location", r.pick(countries)))
	it.AppendChild(xmldom.TextElem("quantity", fmt.Sprintf("%d", 1+r.intn(10))))
	it.AppendChild(xmldom.TextElem("name", r.sentence(3)))
	it.AppendChild(xmldom.TextElem("payment", "Creditcard"))
	it.AppendChild(xmldom.TextElem("description", r.sentence(180+r.intn(240))))
	it.AppendChild(xmldom.TextElem("shipping", "Will ship internationally"))
	inCat := xmldom.NewElement("incategory")
	inCat.SetAttr("category", fmt.Sprintf("category%d", r.intn(categories)))
	it.AppendChild(inCat)
	return it
}

func genPerson(r *rng, i int) *xmldom.Node {
	p := xmldom.NewElement("person")
	p.SetAttr("id", fmt.Sprintf("person%d", i))
	temporalAttrs(p, r.date(2002), false)
	name := r.pick(firstNames) + " " + r.pick(lastNames)
	p.AppendChild(xmldom.TextElem("name", name))
	p.AppendChild(xmldom.TextElem("emailaddress",
		fmt.Sprintf("mailto:%s%d@example.com", strings.ToLower(r.pick(lastNames)), i)))
	p.AppendChild(xmldom.TextElem("phone", fmt.Sprintf("+1 (%03d) %07d", r.intn(999), r.intn(9999999))))
	addr := xmldom.NewElement("address")
	addr.AppendChild(xmldom.TextElem("street", fmt.Sprintf("%d %s St", 1+r.intn(99), r.pick(wordList))))
	addr.AppendChild(xmldom.TextElem("city", r.pick(cities)))
	addr.AppendChild(xmldom.TextElem("country", r.pick(countries)))
	addr.AppendChild(xmldom.TextElem("zipcode", fmt.Sprintf("%05d", r.intn(99999))))
	p.AppendChild(addr)
	p.AppendChild(xmldom.TextElem("creditcard", fmt.Sprintf("%04d %04d %04d %04d", r.intn(9999), r.intn(9999), r.intn(9999), r.intn(9999))))
	profile := xmldom.NewElement("profile")
	profile.SetAttr("income", fmt.Sprintf("%.2f", 20000+float64(r.intn(80000)))) //nolint
	for k := 0; k < 1+r.intn(3); k++ {
		interest := xmldom.NewElement("interest")
		interest.SetAttr("category", fmt.Sprintf("category%d", r.intn(50)+1))
		profile.AppendChild(interest)
	}
	profile.AppendChild(xmldom.TextElem("education", "Graduate School"))
	profile.AppendChild(xmldom.TextElem("business", "Yes"))
	profile.AppendChild(xmldom.TextElem("age", fmt.Sprintf("%d", 18+r.intn(60))))
	p.AppendChild(profile)
	p.AppendChild(xmldom.TextElem("watches", r.sentence(60+r.intn(80))))
	return p
}

func genOpenAuction(r *rng, i, persons, items int) *xmldom.Node {
	a := xmldom.NewElement("open_auction")
	a.SetAttr("id", fmt.Sprintf("open_auction%d", i))
	start := r.date(2003)
	temporalAttrs(a, start, false)
	initial := 1 + r.intn(300)
	a.AppendChild(xmldom.TextElem("initial", fmt.Sprintf("%d.%02d", initial, r.intn(99))))
	if r.intn(2) == 0 {
		a.AppendChild(xmldom.TextElem("reserve", fmt.Sprintf("%d.%02d", initial*2, r.intn(99))))
	}
	cur := float64(initial)
	bidders := 1 + r.intn(5)
	at := start
	for b := 0; b < bidders; b++ {
		at = at.Add(time.Duration(1+r.intn(72)) * time.Hour)
		inc := float64(1+r.intn(20)) + float64(r.intn(100))/100
		cur += inc
		bid := xmldom.NewElement("bidder")
		temporalAttrs(bid, at, true)
		bid.AppendChild(xmldom.TextElem("date", at.Format("01/02/2006")))
		bid.AppendChild(xmldom.TextElem("time", at.Format("15:04:05")))
		ref := xmldom.NewElement("personref")
		ref.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
		bid.AppendChild(ref)
		bid.AppendChild(xmldom.TextElem("increase", fmt.Sprintf("%.2f", inc)))
		a.AppendChild(bid)
	}
	a.AppendChild(xmldom.TextElem("current", fmt.Sprintf("%.2f", cur)))
	itemref := xmldom.NewElement("itemref")
	itemref.SetAttr("item", fmt.Sprintf("item%d", r.intn(items)))
	a.AppendChild(itemref)
	seller := xmldom.NewElement("seller")
	seller.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
	a.AppendChild(seller)
	a.AppendChild(xmldom.TextElem("annotation", r.sentence(90+r.intn(120))))
	a.AppendChild(xmldom.TextElem("quantity", "1"))
	a.AppendChild(xmldom.TextElem("type", "Regular"))
	return a
}

func genClosedAuction(r *rng, i, persons, items int) *xmldom.Node {
	a := xmldom.NewElement("closed_auction")
	a.SetAttr("id", fmt.Sprintf("closed_auction%d", i))
	at := r.date(2003)
	temporalAttrs(a, at, true)
	seller := xmldom.NewElement("seller")
	seller.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
	a.AppendChild(seller)
	buyer := xmldom.NewElement("buyer")
	buyer.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
	a.AppendChild(buyer)
	itemref := xmldom.NewElement("itemref")
	itemref.SetAttr("item", fmt.Sprintf("item%d", r.intn(items)))
	a.AppendChild(itemref)
	// XMark prices cluster low; Q5 counts those >= 40
	a.AppendChild(xmldom.TextElem("price", fmt.Sprintf("%d.%02d", r.intn(200), r.intn(99))))
	a.AppendChild(xmldom.TextElem("date", at.Format("01/02/2006")))
	a.AppendChild(xmldom.TextElem("quantity", "1"))
	a.AppendChild(xmldom.TextElem("type", "Regular"))
	a.AppendChild(xmldom.TextElem("annotation", r.sentence(120+r.intn(120))))
	return a
}

// Structure returns the tag structure that fragments an auction document:
// persons, items and open auctions are temporal (they get updated), bids
// and closed auctions are events, everything else is inline snapshot
// context.
func Structure() *tagstruct.Structure {
	next := 0
	id := func() int { next++; return next }
	tag := func(typ tagstruct.TagType, name string, children ...*tagstruct.Tag) *tagstruct.Tag {
		return &tagstruct.Tag{Type: typ, ID: id(), Name: name, Children: children}
	}
	snap := func(name string, children ...*tagstruct.Tag) *tagstruct.Tag {
		return tag(tagstruct.Snapshot, name, children...)
	}
	itemTree := func() *tagstruct.Tag {
		return tag(tagstruct.Temporal, "item",
			snap("location"), snap("quantity"), snap("name"), snap("payment"),
			snap("description"), snap("shipping"), snap("incategory"))
	}
	regionKids := make([]*tagstruct.Tag, len(Regions))
	for i, name := range Regions {
		regionKids[i] = snap(name, itemTree())
	}
	root := snap("site",
		snap("regions", regionKids...),
		snap("categories",
			tag(tagstruct.Temporal, "category", snap("name"), snap("description"))),
		snap("people",
			tag(tagstruct.Temporal, "person",
				snap("name"), snap("emailaddress"), snap("phone"),
				snap("address", snap("street"), snap("city"), snap("country"), snap("zipcode")),
				snap("creditcard"), snap("watches"),
				snap("profile", snap("interest"), snap("education"), snap("business"), snap("age")))),
		snap("open_auctions",
			tag(tagstruct.Temporal, "open_auction",
				snap("initial"), snap("reserve"),
				tag(tagstruct.Event, "bidder",
					snap("date"), snap("time"), snap("personref"), snap("increase")),
				snap("current"), snap("itemref"), snap("seller"),
				snap("annotation"), snap("quantity"), snap("type"))),
		snap("closed_auctions",
			tag(tagstruct.Event, "closed_auction",
				snap("seller"), snap("buyer"), snap("itemref"), snap("price"),
				snap("date"), snap("quantity"), snap("type"), snap("annotation"))))
	s, err := tagstruct.New(root)
	if err != nil {
		panic("xmark: invalid built-in structure: " + err.Error())
	}
	return s
}

// CoarseStructure is an alternative fragmentation layout for the same
// documents: only open and closed auctions travel as fragments, with
// persons, items, categories and bidders left inline in their parents.
// The granularity ablation compares it against Structure.
func CoarseStructure() *tagstruct.Structure {
	next := 0
	id := func() int { next++; return next }
	tag := func(typ tagstruct.TagType, name string, children ...*tagstruct.Tag) *tagstruct.Tag {
		return &tagstruct.Tag{Type: typ, ID: id(), Name: name, Children: children}
	}
	snap := func(name string, children ...*tagstruct.Tag) *tagstruct.Tag {
		return tag(tagstruct.Snapshot, name, children...)
	}
	itemTree := func() *tagstruct.Tag {
		return snap("item",
			snap("location"), snap("quantity"), snap("name"), snap("payment"),
			snap("description"), snap("shipping"), snap("incategory"))
	}
	regionKids := make([]*tagstruct.Tag, len(Regions))
	for i, name := range Regions {
		regionKids[i] = snap(name, itemTree())
	}
	root := snap("site",
		snap("regions", regionKids...),
		snap("categories", snap("category", snap("name"), snap("description"))),
		snap("people",
			snap("person",
				snap("name"), snap("emailaddress"), snap("phone"),
				snap("address", snap("street"), snap("city"), snap("country"), snap("zipcode")),
				snap("creditcard"), snap("watches"),
				snap("profile", snap("interest"), snap("education"), snap("business"), snap("age")))),
		snap("open_auctions",
			tag(tagstruct.Temporal, "open_auction",
				snap("initial"), snap("reserve"),
				snap("bidder", snap("date"), snap("time"), snap("personref"), snap("increase")),
				snap("current"), snap("itemref"), snap("seller"),
				snap("annotation"), snap("quantity"), snap("type"))),
		snap("closed_auctions",
			tag(tagstruct.Event, "closed_auction",
				snap("seller"), snap("buyer"), snap("itemref"), snap("price"),
				snap("date"), snap("quantity"), snap("type"), snap("annotation"))))
	s, err := tagstruct.New(root)
	if err != nil {
		panic("xmark: invalid coarse structure: " + err.Error())
	}
	return s
}

// GenerateFragments generates a document and fragments it for streaming,
// returning the structure, the fragments (root first), and the document's
// serialized size in bytes (the paper's "File Size" column).
func GenerateFragments(cfg Config) (*tagstruct.Structure, []*fragment.Fragment, int) {
	doc := Generate(cfg)
	s := Structure()
	fr := fragment.NewFragmenter(s)
	frags, err := fr.Fragment(doc)
	if err != nil {
		panic("xmark: generated document does not match structure: " + err.Error())
	}
	return s, frags, doc.Root().EncodedLen()
}

// FragmentedSize returns the total serialized size of the fragments (the
// paper's "Fragmented File Size" column).
func FragmentedSize(frags []*fragment.Fragment) int {
	total := 0
	for _, f := range frags {
		total += len(f.String()) + 1
	}
	return total
}

// The three benchmark queries of §7, written in XCQL against the
// "auction" stream. Q1 is a selective point query, Q2 a range-style query
// over bidders, Q5 a cumulative aggregate.

// QueryQ1 is XMark Q1: the name of person0.
func QueryQ1() string {
	return `for $b in stream("auction")/site/people/person[@id = "person0"]
	        return $b/name`
}

// QueryQ2 is XMark Q2: the first bid increase of every open auction.
func QueryQ2() string {
	return `for $b in stream("auction")/site/open_auctions/open_auction
	        return <increase>{ $b/bidder[1]/increase/text() }</increase>`
}

// QueryQ5 is XMark Q5: how many auctions closed above 40.
func QueryQ5() string {
	return `count(for $i in stream("auction")/site/closed_auctions/closed_auction
	              where $i/price >= 40
	              return $i/price)`
}
