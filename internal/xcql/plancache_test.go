package xcql

import (
	"fmt"
	"strings"
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// A hit is a new Query over the plan the miss made: the same AST, plan and
// streams, its own Limits and LastStats, no parse or translate time, since
// neither ran, and one translate span, the lookup.
func TestPlanCacheHitSharesThePlan(t *testing.T) {
	rt := newRuntime(t)
	sink := &obs.CollectorSink{}
	rt.SetTraceSink(sink)
	const src = `for $a in stream("credit")//account return $a/creditLimit`
	first := rt.MustCompile(src, QaCPlus)
	compiles := len(sink.Spans())
	second := rt.MustCompile(src, QaCPlus)
	if first == second || first.Plan != second.Plan || first.AST != second.AST {
		t.Fatalf("a hit is not a new Query over the cached plan")
	}
	spans := sink.Spans()
	if len(spans) != compiles+1 || compiles != 2 {
		t.Fatalf("spans: %d after the miss (want parse and translate), %d after the hit (want one more)", compiles, len(spans))
	}
	if hit := spans[compiles]; hit.Name != "translate" || hit.Detail != "cached QaC+" {
		t.Fatalf("the hit traced %s %q, want translate \"cached QaC+\"", hit.Name, hit.Detail)
	}
	if plans, _ := rt.CachedPlans(); plans != 1 {
		t.Fatalf("%d plans cached, want 1", plans)
	}
	second.Limits.MaxSteps = 1
	if _, err := second.Eval(evalAt); err == nil {
		t.Fatal("the hit's limits did not bind it")
	}
	if _, err := first.Eval(evalAt); err != nil {
		t.Fatalf("another Query's limits bound the miss's: %v", err)
	}
	if first.LastStats().Steps == second.LastStats().Steps {
		t.Fatalf("LastStats is shared: %d steps both", first.LastStats().Steps)
	}
	if f, s := first.LastStats(), second.LastStats(); f.ParseTime <= 0 || s.ParseTime != 0 || s.TranslateTime != 0 {
		t.Fatalf("compile times: parse %v on the miss, parse %v and translate %v on the hit", f.ParseTime, s.ParseTime, s.TranslateTime)
	}
	// another mode, or another text, is another plan
	if rt.MustCompile(src, QaC).Plan == first.Plan || rt.MustCompile(src+" ", QaCPlus).Plan == first.Plan {
		t.Fatal("a different key hit the cached plan")
	}
}

// twoTagStream is a stream whose root r holds one temporal x, its tag
// numbered xID, whose one version says v.
func twoTagStream(t *testing.T, xID int, v string) *fragment.Store {
	t.Helper()
	s, err := tagstruct.ParseString(fmt.Sprintf(`<stream:structure>
<tag type="snapshot" id="1" name="r"><tag type="temporal" id="%d" name="x"/></tag>
</stream:structure>`, xID))
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	for _, f := range []*fragment.Fragment{
		fragment.New(fragment.RootFillerID, 1, ts("2003-01-01T00:00:00"),
			xmldom.MustParseString(fmt.Sprintf(`<r><hole id="7" tsid="%d"/></r>`, xID)).Root()),
		fragment.New(7, xID, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<x>`+v+`</x>`).Root()),
	} {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// Re-registering a stream under its name with another Tag Structure makes
// the next Compile translate afresh: the plan names the new tsids and
// answers what a fresh runtime answers.
func TestPlanCacheReregisteredStream(t *testing.T) {
	const src = `stream("s")/r/x/text()`
	rt := NewRuntime()
	rt.RegisterStream("s", twoTagStream(t, 2, "before"))
	before := rt.MustCompile(src, QaCPlus)
	if !strings.Contains(before.Plan.String(), `"s", 2,`) {
		t.Fatalf("plan %s does not read tsid 2", before.Plan)
	}
	rt.RegisterStream("s", twoTagStream(t, 5, "after"))
	if plans, bytes := rt.CachedPlans(); plans != 0 || bytes != 0 {
		t.Fatalf("a registration left %d plans (%d bytes) cached", plans, bytes)
	}
	after := rt.MustCompile(src, QaCPlus)
	if after.Plan == before.Plan || !strings.Contains(after.Plan.String(), `"s", 5,`) {
		t.Fatalf("plan %s after re-registration does not read tsid 5", after.Plan)
	}
	fresh := NewRuntime()
	fresh.RegisterStream("s", twoTagStream(t, 5, "after"))
	for _, mode := range allModes {
		got, err := rt.MustCompile(src, mode).Eval(evalAt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MustCompile(src, mode).Eval(evalAt)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(renderSeq(got), "|"), strings.Join(renderSeq(want), "|"); g != w || w != "after" {
			t.Errorf("%s: %q after re-registration, a fresh runtime %q", mode, g, w)
		}
	}
}

// A compile that failed is not kept: once the stream it named is
// registered, the same text compiles.
func TestPlanCacheKeepsNoFailure(t *testing.T) {
	const src = `stream("late")/r/x`
	rt := NewRuntime()
	if _, err := rt.Compile(src, QaCPlus); err == nil {
		t.Fatal("a query over an unregistered stream compiled")
	}
	if plans, _ := rt.CachedPlans(); plans != 0 {
		t.Fatalf("a failed compile left %d plans cached", plans)
	}
	rt.RegisterStream("late", twoTagStream(t, 2, "v"))
	q, err := rt.Compile(src, QaCPlus)
	if err != nil {
		t.Fatalf("after RegisterStream: %v", err)
	}
	if got, err := q.Eval(evalAt); err != nil || len(got) != 1 {
		t.Fatalf("after RegisterStream: %v, %v", renderSeq(got), err)
	}
}

// The cache stays within its bound, in plans and in bytes of text, however
// many distinct texts are compiled, and a text longer than the byte bound
// is compiled every time.
func TestPlanCacheBound(t *testing.T) {
	rt := newRuntime(t)
	check := func(when string) {
		t.Helper()
		if plans, bytes := rt.CachedPlans(); plans > maxCachedPlans || bytes > maxCachedPlanBytes {
			t.Fatalf("%s: %d plans, %d bytes cached; bound %d, %d", when, plans, bytes, maxCachedPlans, maxCachedPlanBytes)
		}
	}
	for i := range maxCachedPlans + 40 {
		rt.MustCompile(fmt.Sprintf(`count(stream("credit")//account) + %d`, i), QaC)
		check(fmt.Sprintf("after %d texts", i+1))
	}
	if plans, _ := rt.CachedPlans(); plans != maxCachedPlans {
		t.Fatalf("%d plans cached after %d texts, want the bound %d", plans, maxCachedPlans+40, maxCachedPlans)
	}
	long := func(i int) string {
		return fmt.Sprintf(`string-length("%s") + %d`, strings.Repeat("a", maxCachedPlanBytes/3), i)
	}
	for i := range 5 {
		rt.MustCompile(long(i), QaC)
		check(fmt.Sprintf("after %d long texts", i+1))
	}
	huge := `string-length("` + strings.Repeat("a", maxCachedPlanBytes) + `")`
	if rt.MustCompile(huge, QaC).Plan == rt.MustCompile(huge, QaC).Plan {
		t.Fatal("a text over the byte bound was cached")
	}
	check("after a text over the bound")
}

// BenchmarkCompile: a text compiled uncached (parse and translate), as a
// miss — the same, with the lookup before it and the store after it, which
// evicts once the cache is full — and as a hit.
func BenchmarkCompile(b *testing.B) {
	rt := newRuntime(b)
	text := func(i int) string {
		return fmt.Sprintf(`for $a in stream("credit")//account where $a/creditLimit > 1000 return ($a/customer, %d)`, i)
	}
	for _, c := range []struct {
		name    string
		compile func(string)
		same    bool // every iteration compiles one text
	}{
		{"uncached", func(src string) { rt.compile(src, QaCPlus) }, false},
		{"miss", func(src string) { rt.Compile(src, QaCPlus) }, false},
		{"hit", func(src string) { rt.Compile(src, QaCPlus) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			texts := make([]string, b.N)
			for i := range texts {
				if texts[i] = text(0); !c.same {
					texts[i] = text(i + 1)
				}
			}
			rt.MustCompile(text(0), QaCPlus)
			b.ReportAllocs()
			b.ResetTimer()
			for _, src := range texts {
				c.compile(src)
			}
		})
	}
}
