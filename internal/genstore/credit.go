package genstore

import (
	"strconv"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xmldom"
)

// CreditStructure is the Tag Structure of the paper's running example,
// the credit-card stream: accounts under a snapshot root, each with a
// temporal credit limit and a history of transaction events.
const CreditStructure = `<stream:structure>
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

// The tsids of CreditStructure a generator of its fragments needs.
const (
	CreditRootTSID        = 1
	CreditAccountTSID     = 2
	CreditTransactionTSID = 5
)

// CreditBase is the validTime of the credit stream's initial document.
var CreditBase = time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)

// CreditPublisher generates the credit stream as a publisher has to send
// it: a receiver cannot know a hole before its parent announces it, so
// every charge travels as the account's re-announcement — a new version
// of the account, its hole list one longer — followed by the transaction
// filler. Accounts are numbered from 0; account a is filler 1+a.
type CreditPublisher struct {
	txs  [][]int // per account, the transaction fillers announced so far
	next int     // the next transaction's filler id
}

// NewCreditPublisher returns a publisher and the stream's initial
// document: the root, then every account, all at CreditBase.
func NewCreditPublisher(accounts int) (*CreditPublisher, []*fragment.Fragment) {
	p := &CreditPublisher{txs: make([][]int, accounts), next: 1 + accounts}
	root := xmldom.NewElement("creditAccounts")
	for a := 0; a < accounts; a++ {
		root.AppendChild(fragment.NewHole(1+a, CreditAccountTSID))
	}
	initial := []*fragment.Fragment{fragment.New(fragment.RootFillerID, CreditRootTSID, CreditBase, root)}
	for a := 0; a < accounts; a++ {
		initial = append(initial, p.Account(a, CreditBase))
	}
	return p, initial
}

// Account returns a version of account a at the instant at, announcing
// every transaction charged to it so far.
func (p *CreditPublisher) Account(a int, at time.Time) *fragment.Fragment {
	el := xmldom.NewElement("account")
	el.SetAttr("id", "acct"+strconv.Itoa(1000+a))
	el.AppendChild(xmldom.TextElem("customer", "Customer "+strconv.Itoa(a)))
	for _, id := range p.txs[a] {
		el.AppendChild(fragment.NewHole(id, CreditTransactionTSID))
	}
	return fragment.New(1+a, CreditAccountTSID, at, el)
}

// Charge returns the two fragments of one charge to account a, in publish
// order: the account's re-announcement, then the transaction.
func (p *CreditPublisher) Charge(a, amount int, at time.Time) (announce, tx *fragment.Fragment) {
	id := p.next
	p.next++
	p.txs[a] = append(p.txs[a], id)
	el := xmldom.NewElement("transaction")
	el.SetAttr("id", "t"+strconv.Itoa(id))
	el.AppendChild(xmldom.TextElem("vendor", "V"))
	el.AppendChild(xmldom.TextElem("amount", strconv.Itoa(amount)))
	return p.Account(a, at), fragment.New(id, CreditTransactionTSID, at, el)
}
