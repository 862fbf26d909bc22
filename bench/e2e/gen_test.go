package main

import (
	"strings"
	"testing"
	"time"

	"xcql"
)

// wireOf serializes a fragment sequence exactly as it would travel.
func wireOf(frags []*xcql.Fragment) string {
	var b strings.Builder
	for _, f := range frags {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func creditWire(seed uint64) string {
	cs := genCredit(seed, 20, 120, 10*time.Second)
	return wireOf(cs.preload) + wireOf(cs.events)
}

func auctionWire(t *testing.T, seed uint64) string {
	t.Helper()
	al, err := genAuction(seed, 60)
	if err != nil {
		t.Fatal(err)
	}
	return wireOf(al.base) + wireOf(al.trickle)
}

func TestSameSeedSameBytes(t *testing.T) {
	if creditWire(7) != creditWire(7) {
		t.Error("credit stream: the same seed produced different bytes")
	}
	if creditWire(7) == creditWire(8) {
		t.Error("credit stream: different seeds produced the same bytes")
	}
	if auctionWire(t, 7) != auctionWire(t, 7) {
		t.Error("auction load: the same seed produced different bytes")
	}
	if auctionWire(t, 7) == auctionWire(t, 8) {
		t.Error("auction load: different seeds produced the same bytes")
	}
}

// A stream must announce a hole before it sends the filler: every
// transaction follows a re-announcement of its account that carries the
// new hole, and event time never runs backwards.
func TestCreditStreamAnnouncesBeforeItFills(t *testing.T) {
	cs := genCredit(3, 5, 40, time.Second)
	if got := len(cs.preload); got != 1+2*5 {
		t.Fatalf("preload has %d fragments, want %d", got, 1+2*5)
	}
	announced := map[int]bool{}
	last := time.Time{}
	for i, f := range cs.events {
		if f.ValidTime.Before(last) {
			t.Fatalf("fragment %d: validTime %v runs backwards", i, f.ValidTime)
		}
		last = f.ValidTime
		if i%2 == 0 {
			if f.TSID != tsidAccount {
				t.Fatalf("fragment %d: want an account re-announcement, got tsid %d", i, f.TSID)
			}
			for _, h := range f.Payload.ChildElements("hole") {
				announced[mustAtoi(t, h.AttrOr("id", ""))] = true
			}
			continue
		}
		if f.TSID != tsidTransaction || !announced[f.FillerID] {
			t.Fatalf("fragment %d: transaction filler %d was not announced by the fragment before it", i, f.FillerID)
		}
	}
	// rounds: after every 5 events each account has been charged equally
	perAccount := map[int]int{}
	for i := 0; i < len(cs.events); i += 2 {
		perAccount[cs.events[i].FillerID]++
	}
	for id, n := range perAccount {
		if n != 40/5 {
			t.Errorf("account filler %d was charged %d times, want %d", id, n, 40/5)
		}
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	if s == "" {
		t.Fatal("empty number")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("bad number %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// The trickle's fragments load into a store on top of the base, and a
// bid's re-announcement carries the hole of the bidder that follows it.
func TestTrickleLoads(t *testing.T) {
	al, err := genAuction(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.trickle) < 30 {
		t.Fatalf("trickle has %d fragments, want at least 30", len(al.trickle))
	}
	st := xcql.NewStore(al.structure)
	if err := st.AddAll(al.base); err != nil {
		t.Fatal(err)
	}
	before := st.Len()
	if err := st.AddAll(al.trickle); err != nil {
		t.Fatal(err)
	}
	if st.Len() <= before {
		t.Errorf("store did not grow: %d fragments before the trickle, %d after", before, st.Len())
	}
	for _, f := range al.trickle {
		if !f.ValidTime.After(al.base[0].ValidTime) || !f.ValidTime.Before(evalInstant) {
			t.Fatalf("trickle filler %d has validTime %v outside (base, evalInstant)", f.FillerID, f.ValidTime)
		}
	}
}
