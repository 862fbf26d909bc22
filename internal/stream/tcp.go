package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// TCP wire format (v2): every message is a frame — a 4-byte big-endian
// payload length followed by that many bytes of XML carrying exactly one
// element. The conversation is:
//
//	client → server   <stream:resume after="N"/>
//	server → client   <stream:header name="…" proto="2" oldest="F" latest="L">
//	                    <stream:structure>…</stream:structure>
//	                  </stream:header>
//	server → client   <filler … seq="S">…</filler>  (repeated)
//	server → client   <stream:eos latest="L"/>      (on orderly shutdown)
//
// after="0" is a fresh registration (full catch-up replay); after="N"
// resumes a broken session, and the server replays every retained
// fragment with seq > N. oldest/latest advertise the server's replay
// window so a resuming client can tell immediately when its position has
// slid out of the window — an unrecoverable gap it must surface rather
// than hide. A server backed by a durable segment store also advertises
// floor="F", the lowest resume position it can serve losslessly: when
// F <= N the server bridges any pre-window gap from the log (snapshot +
// delta bootstrap) and the client must not write the range off. Servers
// without the attribute keep the in-memory-window-only semantics, so old
// and new peers interoperate. This handshake is the paper's single
// pull-based registration; the client still never writes during normal
// flow.
const (
	headerTag = "stream:header"
	resumeTag = "stream:resume"
	eosTag    = "stream:eos"

	protoVersion = "2"

	// maxFrameSize caps a frame payload; a length prefix beyond it is
	// treated as a corrupt stream rather than an allocation request.
	maxFrameSize = 16 << 20

	// maxKeptReadBuffer is the largest read buffer a connection holds on
	// to between frames; a frame beyond it is read into a slice of its own
	// so that one outsized frame does not stay allocated for as long as
	// the connection lives.
	maxKeptReadBuffer = 64 << 10
)

// errStreamEnded marks an orderly <stream:eos/> from the server: the
// stream is over, reconnecting would be pointless.
var errStreamEnded = errors.New("stream: ended by server")

// --- framing ---------------------------------------------------------------

// A payload is a string on its way out: a published fragment's wire form
// is made once and written by every connection, so nothing that handles it
// may be able to change it.
func writeFrame(w io.Writer, payload string) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, payload)
	return err
}

// readFrame reads one frame's payload into buf when buf has the room and
// into a fresh slice otherwise; either way the payload is the returned
// slice, valid until the caller reads into it again.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("stream: empty frame")
	}
	if n > maxFrameSize {
		return nil, fmt.Errorf("stream: frame of %d bytes exceeds limit %d", n, maxFrameSize)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeElement decodes the element a handshake frame carries. The string
// made here is the one copy of the frame: the element's names and values
// are substrings of it, never of payload, which the reader may overwrite.
func decodeElement(payload []byte) (*xmldom.Node, error) {
	return xmldom.ParseElement(string(payload))
}

// frameSink is where the serving side pushes outbound frames; the fault
// injector wraps it to corrupt the flow deliberately.
type frameSink interface {
	WriteFrame(payload string) error
	// Flush releases any frame the sink is holding back (reordering) and
	// writes out what the connection has buffered.
	Flush() error
}

// connSink writes frames into the connection's buffered writer; serveConn
// flushes it whenever its subscription has nothing more queued, so a
// batch the committer delivered leaves in one write and an idle stream
// still sends each frame at once.
type connSink struct {
	w *bufio.Writer
}

func (cs *connSink) WriteFrame(payload string) error {
	return writeFrame(cs.w, payload)
}

func (cs *connSink) Flush() error { return cs.w.Flush() }

// --- server side -----------------------------------------------------------

// ServeOptions tune ServeTCPOptions.
type ServeOptions struct {
	// Faults, when non-nil, injects transport faults into every
	// connection's fragment flow (handshake frames are delivered clean so
	// registration itself stays well-defined). Used by tests and
	// `streamdemo -chaos`.
	Faults *FaultInjector
	// SubscriptionBuffer is the per-connection fragment buffer between
	// the broker and the TCP writer; a slow reader overflows it and the
	// overflow becomes a sequence gap at the client. 0 means 1024.
	SubscriptionBuffer int
	// HandshakeTimeout bounds how long the server waits for the client's
	// resume frame. 0 means 10s.
	HandshakeTimeout time.Duration
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.SubscriptionBuffer <= 0 {
		o.SubscriptionBuffer = 1024
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	return o
}

// ServeTCP accepts registrations on ln and feeds each connection from its
// own subscription until the peer disconnects or the server closes. It
// returns when ln fails (e.g. is closed).
func ServeTCP(s *Server, ln net.Listener) error {
	return ServeTCPOptions(s, ln, ServeOptions{})
}

// ServeTCPOptions is ServeTCP with fault injection and tuning knobs.
func ServeTCPOptions(s *Server, ln net.Listener, opts ServeOptions) error {
	opts = opts.withDefaults()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			_ = serveConn(s, conn, opts)
		}()
	}
}

func serveConn(s *Server, conn net.Conn, opts ServeOptions) error {
	// handshake: read the resume position
	_ = conn.SetReadDeadline(time.Now().Add(opts.HandshakeTimeout))
	br := bufio.NewReaderSize(conn, 32<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		return fmt.Errorf("stream: reading resume frame: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	resumeEl, err := decodeElement(payload)
	if err != nil || resumeEl.Name != resumeTag {
		return fmt.Errorf("stream: expected <%s> frame: %v", resumeTag, err)
	}
	after, err := strconv.ParseUint(resumeEl.AttrOr("after", "0"), 10, 64)
	if err != nil {
		return fmt.Errorf("stream: bad resume position %q", resumeEl.AttrOr("after", ""))
	}

	w := bufio.NewWriterSize(conn, 64<<10)
	clean := &connSink{w: w}

	// the subscription begins before the header goes out: a client whose
	// Dial has returned gets every fragment published since, and the header
	// describes the replay window as the subscription found it. Frames
	// published meanwhile wait in the subscription's buffer.
	sub, st := s.subscribeWire(opts.SubscriptionBuffer, after)
	defer sub.Cancel()

	// header: name, structure and the current replay window
	header := xmldom.NewElement(headerTag)
	header.SetAttr("name", s.Name())
	header.SetAttr("proto", protoVersion)
	header.SetAttr("oldest", strconv.FormatUint(st.OldestRetained, 10))
	header.SetAttr("latest", strconv.FormatUint(st.LatestSeq, 10))
	header.SetAttr("floor", strconv.FormatUint(st.ResumeFloor, 10))
	header.AppendChild(s.Structure().ToXML())
	if err := clean.WriteFrame(header.String()); err != nil {
		return err
	}

	var sink frameSink = clean
	if opts.Faults != nil {
		sink = opts.Faults.wrap(clean, conn)
	}

	for {
		// about to wait for the next frame: what is buffered goes out
		if len(sub.C()) == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		f, ok := <-sub.C()
		if !ok {
			break
		}
		// the bytes Publish sealed onto the fragment, the same ones for
		// every connection; a replayed fragment that carries none is
		// encoded here
		if err := sink.WriteFrame(f.String()); err != nil {
			return err
		}
	}
	// orderly end of stream: release any held frame, then say goodbye.
	// The eos frame carries the latest delivered seq so a client that was
	// starved (e.g. its whole tail overflowed the subscription buffer) can
	// tell it is behind and run its final catch-up pass.
	if err := sink.Flush(); err != nil {
		return err
	}
	eos := xmldom.NewElement(eosTag)
	eos.SetAttr("latest", strconv.FormatUint(s.Stats().LatestSeq, 10))
	if err := clean.WriteFrame(eos.String()); err != nil {
		return err
	}
	return w.Flush()
}

// --- client side -----------------------------------------------------------

// DialOptions tune Dial's reconnect behaviour.
type DialOptions struct {
	// Reconnect enables automatic re-registration after a transport
	// failure, resuming from the last seen sequence number.
	Reconnect bool
	// MaxAttempts caps consecutive failed reconnect attempts before the
	// client gives up (recording the failure in Errs). 0 means retry
	// until the client is closed.
	MaxAttempts int
	// InitialBackoff is the delay before the first reconnect attempt;
	// it doubles per consecutive failure up to MaxBackoff. Defaults:
	// 50ms / 5s.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// Jitter is the fraction of each backoff randomized away (0..1,
	// default 0.2): sleep = backoff * (1 - Jitter*rand).
	Jitter float64
	// Rand drives the jitter; nil uses a time-seeded source. Tests pass
	// a seeded RNG for determinism.
	Rand *rand.Rand
}

func (o DialOptions) withDefaults() DialOptions {
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Jitter < 0 || o.Jitter > 1 {
		o.Jitter = 0.2
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return o
}

// DialTCP registers with a stream server and returns a Client that keeps
// consuming fragments on a background goroutine. The connection is
// resilient: on failure it reconnects with exponential backoff and
// resumes from the last seen sequence number.
func DialTCP(addr string) (*Client, error) {
	return Dial(addr, DialOptions{Reconnect: true})
}

// handshake is what the server told us at registration.
type handshake struct {
	name           string
	structure      *tagstruct.Structure
	oldest, latest uint64
	// floor is the lowest lossless resume position the server advertised;
	// hasFloor distinguishes floor=0 (the whole stream is servable) from
	// a legacy server that sent no floor attribute at all.
	floor    uint64
	hasFloor bool
}

// baselineFor picks the sequence baseline a fresh registration anchors
// at: a server advertising a durable floor starts its replay right after
// max(after, floor) — pre-window fragments arrive via the durable
// bridge — so anchoring at the in-memory window's oldest would
// misclassify the bridged prefix as duplicates. Legacy servers (no
// floor attribute) anchor at the window as before.
func baselineFor(hs handshake, after uint64) uint64 {
	if hs.hasFloor {
		if after >= hs.floor {
			return after + 1
		}
		return hs.floor + 1
	}
	return hs.oldest
}

// Dial registers with a stream server under explicit reconnect options.
// The initial connection is synchronous — a server that cannot be reached
// at all is an immediate error; resilience starts once the first
// registration succeeds.
func Dial(addr string, opts DialOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, hs, err := dialHandshake(addr, 0)
	if err != nil {
		return nil, err
	}
	c := NewClient(hs.name, hs.structure)
	c.setBaseline(baselineFor(hs, 0))
	c.noteLatest(hs.latest)
	go runClient(c, conn, addr, opts)
	return c, nil
}

// clientConn couples a connection with the buffered reader that must
// survive from handshake to read loop (the reader may already hold
// fragment frames buffered behind the header).
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialHandshake connects, announces the resume position and reads the
// header frame.
func dialHandshake(addr string, after uint64) (*clientConn, handshake, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, handshake{}, err
	}
	resume := xmldom.NewElement(resumeTag)
	resume.SetAttr("after", strconv.FormatUint(after, 10))
	if err := writeFrame(conn, resume.String()); err != nil {
		conn.Close()
		return nil, handshake{}, fmt.Errorf("stream: sending resume: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		conn.Close()
		return nil, handshake{}, fmt.Errorf("stream: reading header: %w", err)
	}
	headerEl, err := decodeElement(payload)
	if err != nil {
		conn.Close()
		return nil, handshake{}, fmt.Errorf("stream: decoding header: %w", err)
	}
	if headerEl.Name != headerTag {
		conn.Close()
		return nil, handshake{}, fmt.Errorf("stream: expected <%s>, got <%s>", headerTag, headerEl.Name)
	}
	structEl := headerEl.FirstChildElement(tagstruct.WireRoot)
	if structEl == nil {
		conn.Close()
		return nil, handshake{}, fmt.Errorf("stream: header carries no tag structure")
	}
	structure, err := tagstruct.FromXML(structEl)
	if err != nil {
		conn.Close()
		return nil, handshake{}, err
	}
	hs := handshake{name: headerEl.AttrOr("name", ""), structure: structure}
	hs.oldest, _ = strconv.ParseUint(headerEl.AttrOr("oldest", "0"), 10, 64)
	hs.latest, _ = strconv.ParseUint(headerEl.AttrOr("latest", "0"), 10, 64)
	if v := headerEl.AttrOr("floor", ""); v != "" {
		if floor, ferr := strconv.ParseUint(v, 10, 64); ferr == nil {
			hs.floor, hs.hasFloor = floor, true
		}
	}
	return &clientConn{conn: conn, br: br}, hs, nil
}

// runClient owns the connection lifecycle: read until failure, then (when
// enabled) reconnect with backoff and resume.
//
// An orderly <stream:eos/> normally ends the client — but if the client
// still knows of outstanding fragments (pending gaps, or a handshake
// advertised a latest seq it never reached), it first attempts a bounded
// number of final catch-up registrations: the server keeps replaying
// retained history even after Close, so a last resume usually heals
// every recoverable hole. The loop gives up as soon as an attempt makes
// no progress, so a trimmed replay window cannot spin it.
func runClient(c *Client, conn *clientConn, addr string, opts DialOptions) {
	var lastHeal healProgress
	staleHeals := 0 // consecutive heal attempts that recovered nothing
	for {
		err := readLoop(c, conn)
		select {
		case <-c.done:
			return
		default:
		}
		if errors.Is(err, errStreamEnded) {
			if !opts.Reconnect {
				return
			}
			missing, behind := c.outstanding()
			if missing == 0 && behind == 0 {
				return
			}
			progress := healProgress{lastSeq: c.LastSeq(), missing: missing}
			if progress == lastHeal {
				// a lossy transport can starve a single replay of the one
				// frame it needed, so one empty-handed attempt is not proof
				// of permanent loss — but three in a row is close enough
				if staleHeals++; staleHeals >= 3 {
					return
				}
			} else {
				staleHeals = 0
			}
			lastHeal = progress
			healOpts := opts
			if healOpts.MaxAttempts == 0 || healOpts.MaxAttempts > 3 {
				healOpts.MaxAttempts = 3
			}
			next, ok := reconnect(c, addr, healOpts)
			if !ok {
				return
			}
			conn = next
			continue
		}
		if !opts.Reconnect {
			if err != nil && err != io.EOF {
				c.addErr(err)
			}
			return
		}
		next, ok := reconnect(c, addr, opts)
		if !ok {
			return
		}
		conn = next
	}
}

// healProgress fingerprints the receive state between end-of-stream heal
// attempts; identical fingerprints mean the attempt changed nothing.
type healProgress struct {
	lastSeq uint64
	missing int
}

// reconnect retries dialHandshake under the backoff policy until it
// succeeds, the client closes, or MaxAttempts is exhausted.
func reconnect(c *Client, addr string, opts DialOptions) (*clientConn, bool) {
	backoff := opts.InitialBackoff
	for attempt := 1; ; attempt++ {
		if opts.MaxAttempts > 0 && attempt > opts.MaxAttempts {
			c.addErr(fmt.Errorf("stream: giving up on %s after %d reconnect attempts", addr, opts.MaxAttempts))
			return nil, false
		}
		sleep := backoff - time.Duration(opts.Jitter*opts.Rand.Float64()*float64(backoff))
		select {
		case <-c.done:
			return nil, false
		case <-time.After(sleep):
		}
		after := c.resumePos()
		conn, hs, err := dialHandshake(addr, after)
		if err != nil {
			backoff *= 2
			if backoff > opts.MaxBackoff {
				backoff = opts.MaxBackoff
			}
			continue
		}
		if hs.name != c.Name() {
			conn.conn.Close()
			c.addErr(fmt.Errorf("stream: reconnected to %q, want %q", hs.name, c.Name()))
			return nil, false
		}
		// The resume position may have slid out of the server's replay
		// window. With an advertised durable floor at or below it the
		// server bridges the gap losslessly (a snapshot bootstrap); below
		// the floor — or past a legacy server's window — the loss is
		// permanent and must be said out loud.
		if after > 0 {
			outcome := outcomeReplay
			switch {
			case hs.hasFloor && after >= hs.floor:
				// lossless; it is a bootstrap when the in-memory window
				// alone could not have served the position
				if (hs.oldest > 0 && hs.oldest > after+1) || (hs.oldest == 0 && hs.latest > after) {
					outcome = outcomeSnapshot
				}
			case hs.hasFloor:
				outcome = outcomeDegraded
				c.reportUnrecoverable(Gap{From: after + 1, To: hs.floor,
					Reason: fmt.Sprintf("unrecoverable: server can only resume after seq %d", hs.floor)})
			case hs.oldest > after+1:
				outcome = outcomeDegraded
				c.reportUnrecoverable(Gap{From: after + 1, To: hs.oldest - 1,
					Reason: fmt.Sprintf("unrecoverable: server replay window starts at seq %d", hs.oldest)})
			case hs.oldest == 0 && hs.latest > after:
				outcome = outcomeDegraded
				c.reportUnrecoverable(Gap{From: after + 1, To: hs.latest,
					Reason: "unrecoverable: server retains no replay history"})
			}
			c.noteReconnectOutcome(outcome)
		}
		c.setBaseline(baselineFor(hs, after))
		c.noteReconnect()
		c.noteLatest(hs.latest)
		return conn, true
	}
}

// readLoop consumes frames until the connection dies, the stream ends, or
// the client closes. It always closes the connection before returning.
func readLoop(c *Client, cc *clientConn) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-c.done:
			cc.conn.Close() // unblock the pending read
		case <-stop:
		}
	}()
	defer cc.conn.Close()
	br := cc.br
	// one read buffer and one decoder for the connection's life: every
	// frame is read into the buffer, copied out once as the string it is
	// decoded from, and scanned in the decoder's scratch: the fragment keeps
	// the string and builds nothing (fragment.FromScanned)
	var buf []byte
	var dec xmldom.Decoder
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return err
		}
		if cap(payload) <= maxKeptReadBuffer {
			buf = payload
		}
		el, err := dec.Scan(string(payload))
		if err != nil {
			// a frame that is not well-formed XML: tolerate the noise,
			// the sequence numbers account for anything lost
			c.addErr(err)
			continue
		}
		if el.Name() == eosTag {
			v, _ := xmldom.LookupAttr(el.Attrs(), "latest")
			if latest, err := strconv.ParseUint(v, 10, 64); err == nil {
				c.noteLatest(latest)
			}
			return errStreamEnded
		}
		f, err := fragment.FromScanned(el)
		if err != nil {
			c.addErr(err)
			continue
		}
		c.Apply(f)
	}
}
