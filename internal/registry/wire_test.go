package registry

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// Result frames carry XML items: the JSON around them must not escape
// their markup for an HTML page they will never be on ('<' and '>' would
// travel as six bytes each), and a frame is exactly the object.
func TestResultFramesKeepMarkupBytes(t *testing.T) {
	item := churnEl(t, `<transaction id="t1"><amount>5 &amp; up</amount></transaction>`)
	frame, err := JSONCodec{}.AppendResult(nil, 3, Result{At: time.Unix(0, 0).UTC(), Delta: xq.Sequence{item}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(frame, []byte(`<transaction id=\"t1\"><amount>5 &amp; up</amount></transaction>`)) {
		t.Fatalf("markup bytes were escaped: %s", frame)
	}
	if bytes.HasSuffix(frame, []byte("\n")) || frame[0] != '{' || frame[len(frame)-1] != '}' {
		t.Fatalf("frame is not exactly one object: %q", frame)
	}
	w, err := new(resultReader).read(frame)
	if err != nil || len(w.Delta) != 1 || w.Delta[0] != item.String() {
		t.Fatalf("subscriber decoded %+v, %v", w, err)
	}
}

// writeCounter is a net.Conn that records what each Write was handed.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// A frame leaves in one Write — header and payload together — in both
// directions, whatever header form its length takes, and the other side's
// reader gets the payload back.
func TestWSFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 10, 125, 126, 70000} {
		payload := bytes.Repeat([]byte("<r/>"), n/4+1)[:n]

		srv := &writeCounter{}
		if err := (&wsConn{conn: srv}).WriteText(payload); err != nil {
			t.Fatal(err)
		}
		if len(srv.writes) != 1 {
			t.Fatalf("server frame of %d bytes took %d writes", n, len(srv.writes))
		}
		got, err := (&wsClient{br: bufio.NewReader(bytes.NewReader(srv.writes[0]))}).ReadMessage()
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("server frame of %d bytes read back as %d bytes, %v", n, len(got), err)
		}

		cli := &writeCounter{}
		if err := (&wsClient{conn: cli}).WriteText(payload); err != nil {
			t.Fatal(err)
		}
		if len(cli.writes) != 1 {
			t.Fatalf("client frame of %d bytes took %d writes", n, len(cli.writes))
		}
		op, got, err := readWSFrame(bufio.NewReader(bytes.NewReader(cli.writes[0])), wsMaxPayload)
		if err != nil || op != opText || !bytes.Equal(got, payload) {
			t.Fatalf("client frame of %d bytes read back as op %#x, %d bytes, %v", n, op, len(got), err)
		}
	}
	// the kept buffer is reused, and a frame past the bound is not kept
	c := &wsConn{conn: &writeCounter{}}
	_ = c.WriteText(make([]byte, 100))
	kept := cap(c.wbuf)
	_ = c.WriteText(make([]byte, wsMaxKeptWriteBuffer+1))
	_ = c.WriteText(make([]byte, 50))
	if cap(c.wbuf) != kept {
		t.Fatalf("write buffer went from %d to %d bytes across an outsized frame", kept, cap(c.wbuf))
	}
}

// The subscriber's reader holds a server to what the server's reader holds
// a client to. Each crafted frame below is followed on the socket by a
// well-formed one, and must end the read with an error instead: a reader
// that returned the first (a data frame without FIN is a message cut
// short) or skipped it for the second (a continuation frame, an unknown
// opcode) would hand the subscriber a frame that is not the server's.
func TestSubscriberRejectsMalformedServerFrames(t *testing.T) {
	next := append([]byte{0x80 | opText, 2}, "{}"...)
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"data frame without FIN", append([]byte{opText, 5}, `{"id"`...), "fragmented"},
		{"continuation frame", append([]byte{0x80 | opContinuation, 2}, "}]"...), "fragmented"},
		{"reserved bits", append([]byte{0x80 | 0x40 | opText, 2}, "{}"...), "reserved bits"},
		{"unknown opcode", append([]byte{0x80 | 0x3, 2}, "{}"...), "unsupported opcode"},
		{"control frame over 125 bytes", append([]byte{0x80 | opPing, 126, 0, 126}, bytes.Repeat([]byte{'p'}, 126)...), "oversized control frame"},
		{"masked frame", append([]byte{0x80 | opText, 0x80 | 2, 1, 2, 3, 4}, "z!"...), "masked"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, cli := net.Pipe()
			defer srv.Close()
			defer cli.Close()
			go func() { _, _ = srv.Write(append(c.frame, next...)) }()
			go func() { _, _ = io.Copy(io.Discard, srv) }() // a pong, if one is written
			_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))
			msg, err := (&wsClient{conn: cli, br: bufio.NewReader(cli)}).ReadMessage()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("read %q, %v; want an error saying %q", msg, err, c.want)
			}
		})
	}
}

// Arrivals visit groups by key and members by id. Both orders are kept
// where membership changes, not rebuilt per arrival, so they must survive
// registrations and closes in any order — and the slices an arrival may be
// iterating must never be written.
func TestGroupAndMemberOrderSurvivesChurn(t *testing.T) {
	structure := churnStructure(t)
	st := fragment.NewStore(structure)
	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	queries := []*xcql.Query{
		rt.MustCompile(`for $e in stream("log")//event return $e`, xcql.QaCPlus),
		rt.MustCompile(`for $e in stream("log")//event return $e`, xcql.QaC),
		rt.MustCompile(`count(stream("log")//event)`, xcql.CaQ),
	}
	r := New(nil)
	check := func(when string) {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		if len(r.order) != len(r.groups) {
			t.Fatalf("%s: %d groups ordered, %d live", when, len(r.order), len(r.groups))
		}
		if !slices.IsSortedFunc(r.order, func(a, b *group) int { return strings.Compare(a.key, b.key) }) {
			t.Fatalf("%s: groups out of key order", when)
		}
		members := 0
		for _, g := range r.order {
			if r.groups[g.key] != g || len(g.members) == 0 {
				t.Fatalf("%s: group %q is ordered but not live", when, g.scope)
			}
			if !slices.IsSortedFunc(g.members, func(a, b *Registration) int { return int(a.id - b.id) }) {
				t.Fatalf("%s: members of %q out of id order", when, g.scope)
			}
			members += len(g.members)
		}
		if members != len(r.regs) {
			t.Fatalf("%s: %d members ordered, %d registrations live", when, members, len(r.regs))
		}
	}
	var regs []*Registration
	for i := range 12 {
		// a group is the stores read and the limits: the limits part the
		// three queries into three groups
		lim := xcql.Limits{MaxSteps: int64(1e9 + i%len(queries))}
		reg, err := r.Register(queries[i%len(queries)], Options{OnResult: func(Result) {}, Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
		check("register")
	}
	// what an arrival in flight would be iterating
	r.mu.Lock()
	if len(r.order) != len(queries) {
		t.Fatalf("%d groups, want %d", len(r.order), len(queries))
	}
	groupsSeen := r.order
	membersSeen := r.order[0].members
	groupsWant, membersWant := slices.Clone(groupsSeen), slices.Clone(membersSeen)
	r.mu.Unlock()
	for _, i := range []int{5, 0, 11, 3, 4, 8, 1, 2, 7, 10, 6, 9} {
		regs[i].Close()
		regs[i].Close() // closing twice changes nothing
		check("close")
	}
	if !slices.Equal(groupsSeen, groupsWant) || !slices.Equal(membersSeen, membersWant) {
		t.Fatal("a slice an arrival could be iterating was written in place")
	}
	if len(r.order) != 0 {
		t.Fatalf("%d groups left after every registration closed", len(r.order))
	}
}
