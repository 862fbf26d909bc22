package main

// Deterministic input generators. Everything the program under test
// receives is produced here from the seed: the credit-card stream of the
// paper's running example (every charge travels as the parent account's
// re-announcement followed by the transaction filler — the two fragments
// a real stream has to send, because a receiver cannot know a hole before
// its parent announces it) and the XMark auction load with its trickle
// of updates.

import (
	"fmt"
	"strconv"
	"time"

	"xcql"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
)

// eventBase is validTime zero of every generated stream.
var eventBase = time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)

// splitmix is a SplitMix64 generator: identical output on every Go
// version, which math/rand does not promise.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{state: seed*0x9e3779b97f4a7c15 + 1} }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

const creditStructureXML = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="snapshot" id="7" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

const (
	tsidRoot        = 1
	tsidAccount     = 2
	tsidCreditLimit = 4
	tsidTransaction = 5
)

var vendors = []string{"Electronics Mart", "Jeweller", "Grocer", "Airline", "Bookshop", "Fuel", "Pharmacy", "Hotel"}

// creditStream is one generated credit-card workload.
type creditStream struct {
	structure *xcql.TagStructure
	// preload is the initial document: root, then every account with its
	// credit limit. It is published in set-up, before anything is timed.
	preload []*xcql.Fragment
	// events holds two fragments per event: events[2i] re-announces the
	// account with the new hole, events[2i+1] is the transaction.
	events []*xcql.Fragment
	// wireBytes is the serialized size of preload + events.
	wireBytes int64
}

func (cs *creditStream) numEvents() int { return len(cs.events) / 2 }

// lastValidTime is the validTime of the final event.
func (cs *creditStream) lastValidTime() time.Time { return cs.events[len(cs.events)-1].ValidTime }

func accountPayload(a int, limitID int, txIDs []int) *xmldom.Node {
	el := xmldom.NewElement("account")
	el.SetAttr("id", "acct"+strconv.Itoa(1000+a))
	el.AppendChild(xmldom.TextElem("customer", "Customer "+strconv.Itoa(a)))
	el.AppendChild(xcql.NewHole(limitID, tsidCreditLimit))
	for _, id := range txIDs {
		el.AppendChild(xcql.NewHole(id, tsidTransaction))
	}
	return el
}

// genCredit builds the credit stream: accounts, then n events spaced step
// apart in event time. Events visit the accounts in rounds, each round a
// fresh seeded permutation of all of them: which account is charged when
// depends on the seed, but every account's history grows at the same
// pace under every seed, so the work a standing query does — which
// follows the number of versions and holes — is a property of the
// workload and not of the draw. Amounts are uniform in [1,1000], so about
// half of them pass the filter query's amount > 500.
func genCredit(seed uint64, accounts, n int, step time.Duration) *creditStream {
	r := newSplitmix(seed)
	cs := &creditStream{structure: xcql.MustParseTagStructure(creditStructureXML)}
	accountID := func(a int) int { return 1 + a }
	limitID := func(a int) int { return 1 + accounts + a }
	txID := func(i int) int { return 1 + 2*accounts + i }

	root := xmldom.NewElement("creditAccounts")
	for a := 0; a < accounts; a++ {
		root.AppendChild(xcql.NewHole(accountID(a), tsidAccount))
	}
	cs.preload = append(cs.preload, xcql.NewFragment(0, tsidRoot, eventBase, root))
	for a := 0; a < accounts; a++ {
		cs.preload = append(cs.preload,
			xcql.NewFragment(accountID(a), tsidAccount, eventBase, accountPayload(a, limitID(a), nil)),
			xcql.NewFragment(limitID(a), tsidCreditLimit, eventBase,
				xmldom.TextElem("creditLimit", strconv.Itoa(1000*(1+r.intn(10))))))
	}

	txOf := make([][]int, accounts)
	order := make([]int, accounts)
	for a := range order {
		order[a] = a
	}
	cs.events = make([]*xcql.Fragment, 0, 2*n)
	for i := 0; i < n; i++ {
		if i%accounts == 0 {
			for k := accounts - 1; k > 0; k-- { // Fisher–Yates
				j := r.intn(k + 1)
				order[k], order[j] = order[j], order[k]
			}
		}
		a := order[i%accounts]
		at := eventBase.Add(time.Duration(i+1) * step)
		txOf[a] = append(txOf[a], txID(i))
		tx := xmldom.NewElement("transaction")
		tx.SetAttr("id", "t"+strconv.Itoa(i))
		tx.AppendChild(xmldom.TextElem("vendor", vendors[r.intn(len(vendors))]))
		tx.AppendChild(xmldom.TextElem("amount", strconv.Itoa(1+r.intn(1000))))
		cs.events = append(cs.events,
			xcql.NewFragment(accountID(a), tsidAccount, at, accountPayload(a, limitID(a), txOf[a])),
			xcql.NewFragment(txID(i), tsidTransaction, at, tx))
	}
	for _, f := range cs.preload {
		cs.wireBytes += int64(len(f.String()))
	}
	for _, f := range cs.events {
		cs.wireBytes += int64(len(f.String()))
	}
	return cs
}

// auctionLoad is the XMark document as fragments plus the trickle of
// updates applied beside the reads of adhoc-under-ingest.
type auctionLoad struct {
	structure *xcql.TagStructure
	base      []*xcql.Fragment
	// trickle is the update stream in publish order: person re-versions
	// (one fragment) and bids (the open_auction re-announcement followed
	// by the bidder filler).
	trickle []*xcql.Fragment
}

// xmarkScale is the XMark scaling factor of both ad-hoc workloads.
const xmarkScale = 0.02

// evalInstant is the fixed "at" of every ad-hoc request: after all
// generated history, base and trickle alike.
var evalInstant = time.Date(2004, time.June, 1, 0, 0, 0, 0, time.UTC)

// trickleBase is validTime zero of trickle updates: after every base
// fragment (XMark dates end in 2003) and before evalInstant.
var trickleBase = time.Date(2004, time.January, 1, 0, 0, 0, 0, time.UTC)

// genAuction generates the XMark load and at least nTrickle trickle
// fragments (one more when the last update is a bid, whose two fragments
// stay together).
func genAuction(seed uint64, nTrickle int) (*auctionLoad, error) {
	structure, base, _ := xmark.GenerateFragments(xmark.Config{Scale: xmarkScale, Seed: seed})
	al := &auctionLoad{structure: structure, base: base}
	if nTrickle == 0 {
		return al, nil
	}
	tagID := func(name string) (int, error) {
		tags := structure.Named(name)
		if len(tags) != 1 {
			return 0, fmt.Errorf("gen: XMark structure has %d %q tags, want 1", len(tags), name)
		}
		return tags[0].ID, nil
	}
	personTSID, err := tagID("person")
	if err != nil {
		return nil, err
	}
	auctionTSID, err := tagID("open_auction")
	if err != nil {
		return nil, err
	}
	bidderTSID, err := tagID("bidder")
	if err != nil {
		return nil, err
	}
	var persons, auctions []*xcql.Fragment
	nextID := 0
	for _, f := range base {
		switch f.TSID {
		case personTSID:
			persons = append(persons, f)
		case auctionTSID:
			auctions = append(auctions, f)
		}
		if f.FillerID >= nextID {
			nextID = f.FillerID + 1
		}
	}
	if len(persons) == 0 || len(auctions) == 0 {
		return nil, fmt.Errorf("gen: XMark load has %d persons and %d open auctions", len(persons), len(auctions))
	}
	// the latest announced payload of each auction, so successive bids on
	// one auction accumulate holes as a real publisher's would
	latest := make(map[int]*xmldom.Node, len(auctions))
	r := newSplitmix(seed ^ 0x7472696b) // a stream of its own, so the load does not depend on nTrickle
	for j := 0; len(al.trickle) < nTrickle; j++ {
		at := trickleBase.Add(time.Duration(j+1) * time.Minute)
		if j%3 == 0 {
			p := persons[r.intn(len(persons))]
			payload := p.Payload.Clone()
			if phone := payload.FirstChildElement("phone"); phone != nil {
				phone.Children = nil
				phone.AppendChild(xmldom.NewText(fmt.Sprintf("+1 (%03d) %07d", r.intn(999), r.intn(9999999))))
			}
			al.trickle = append(al.trickle, xcql.NewFragment(p.FillerID, p.TSID, at, payload))
			continue
		}
		a := auctions[r.intn(len(auctions))]
		prev := latest[a.FillerID]
		if prev == nil {
			prev = a.Payload
		}
		payload := prev.Clone()
		payload.AppendChild(xcql.NewHole(nextID, bidderTSID))
		latest[a.FillerID] = payload
		bid := xmldom.NewElement("bidder")
		bid.AppendChild(xmldom.TextElem("date", at.Format("01/02/2006")))
		bid.AppendChild(xmldom.TextElem("time", at.Format("15:04:05")))
		ref := xmldom.NewElement("personref")
		ref.SetAttr("person", "person"+strconv.Itoa(r.intn(len(persons))))
		bid.AppendChild(ref)
		bid.AppendChild(xmldom.TextElem("increase", fmt.Sprintf("%d.%02d", 1+r.intn(20), r.intn(100))))
		al.trickle = append(al.trickle,
			xcql.NewFragment(a.FillerID, a.TSID, at, payload),
			xcql.NewFragment(nextID, bidderTSID, at, bid))
		nextID++
	}
	return al, nil
}
