package fragment_test

import (
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// versionsOf renders each element's own version — its name and attributes,
// the stamps included — and none of what lies below it, which the caller of
// a bounded read projects.
func versionsOf(els []*xmldom.Node) string {
	var b strings.Builder
	for _, el := range els {
		own := el.CloneShallow()
		own.Children = nil
		b.WriteString(own.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReadUnderSpan: a read under a lifespan bound keeps, stamps and
// reports to its horizon what the projection of the unbounded read keeps,
// stamps and reports — an interval over every source, by tsid through the
// event tags' validTime index too, and a version range numbering the whole
// read —, through both access implementations, over indexed and scan
// stores of generated histories, reordered arrivals included — and a
// store that filed its event versions by time halfway through its history
// —, and examines no more than the unbounded read.
func TestReadUnderSpan(t *testing.T) {
	h := func(x float64) xtime.DateTime {
		return xtime.At(genstore.Base.Add(time.Duration(x * float64(time.Hour))))
	}
	now := func(d string) xtime.DateTime { return xtime.Now().Add(xtime.MustParseDuration(d)) }
	windows := []xtime.Interval{
		{From: h(2), To: h(6)},
		{From: h(3), To: h(3)},
		{From: h(5.5), To: h(1.5)},
		{From: now("-PT5H"), To: xtime.Now()},
		{From: now("-PT6H"), To: now("-PT2H")},
		{From: xtime.Now(), To: xtime.Now()},
		{From: now("P1M"), To: now("P2M")},
	}
	ranges := []xtime.VersionInterval{{From: 2, To: 2}, {FromLast: true, ToLast: true}, {From: 2, ToLast: true}, {From: 1, To: 0}}
	reads, narrowed := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{{Seed: seed}, {Seed: seed, Scan: true}, {Seed: seed, Reorder: true, Reannounce: true}} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			built, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			// a store read under a bound halfway, so that the event tags'
			// versions are filed by time on that read and by Add after it
			grown := fragment.NewStore(ins.Structure)
			if p.Scan {
				grown = fragment.NewScanStore(ins.Structure)
			}
			half := len(ins.Fragments) / 2
			if err := grown.AddAll(ins.Fragments[:half]); err != nil {
				t.Fatal(err)
			}
			for _, tag := range ins.Structure.Tags() {
				fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{At: ins.Instants[0]}).Read(grown, fragment.Read{Source: fragment.FromTSID, ID: tag.ID, Span: fragment.Span{Kind: fragment.IntervalSpan, Window: windows[0]}})
			}
			if err := grown.AddAll(ins.Fragments[half:]); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*fragment.Store{built, grown} {
				for _, kind := range []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess} {
					for _, at := range ins.Instants {
						acc := fragment.NewAccess(kind, fragment.Eval{At: at})
						for _, tag := range ins.Structure.Tags() {
							if !tag.IsFragmented() {
								continue
							}
							whole, all := acc.Read(st, fragment.Read{Source: fragment.FromTSID, ID: tag.ID})
							for _, w := range windows {
								var hb, hp xtime.Horizon
								hb.Reset(at)
								hp.Reset(at)
								got, g := acc.Read(st, fragment.Read{Source: fragment.FromTSID, ID: tag.ID, Span: fragment.Span{Kind: fragment.IntervalSpan, Window: w, Horizon: &hb}})
								want := temporal.IntervalProjection(whole, w, at, &hp, nil)
								reads++
								if versionsOf(got) != versionsOf(want) {
									t.Fatalf("%s %v at %s: //%s%s reads\n%swhile its projection is\n%s", p, kind, at.Format(xtime.Layout), tag.Name, w, versionsOf(got), versionsOf(want))
								}
								bn, bok := hb.Next()
								pn, pok := hp.Next()
								if bn != pn || bok != pok {
									t.Fatalf("%s %v at %s: //%s%s holds until %v (%v), its projection until %v (%v)", p, kind, at.Format(xtime.Layout), tag.Name, w, bn, bok, pn, pok)
								}
								if g.Examined > all.Examined {
									t.Fatalf("%s: //%s%s examined %d versions, the unbounded read %d", p, tag.Name, w, g.Examined, all.Examined)
								}
								if g.Examined < all.Examined {
									narrowed++
								}
							}
							for _, v := range ranges {
								got, _ := acc.Read(st, fragment.Read{Source: fragment.FromTSID, ID: tag.ID, Span: fragment.Span{Kind: fragment.VersionSpan, Versions: v}})
								lo, hi := v.Bounds(len(whole))
								var want []*xmldom.Node
								if lo <= hi {
									want = whole[lo-1 : hi]
								}
								if versionsOf(got) != versionsOf(want) {
									t.Fatalf("%s %v at %s: //%s%s reads\n%swhile the read's versions %d..%d are\n%s", p, kind, at.Format(xtime.Layout), tag.Name, v, versionsOf(got), lo, hi, versionsOf(want))
								}
							}
						}
					}
				}
			}
		}
	}
	if reads == 0 || narrowed == 0 {
		t.Fatalf("%d bounded reads, %d of them examining fewer versions: the index goes unchecked", reads, narrowed)
	}
}
