package registry

// Minimal server-side RFC 6455 WebSocket: handshake, single-frame text
// messages, ping/pong, close. Hand-rolled because the module's only
// dependency is the Go standard library — the subset here (no
// extensions, no fragmentation, no client role) is all the subscribe
// API needs, and the frame reader is fuzzed (FuzzQueryAPIRequest)
// against arbitrary bytes.

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// websocketGUID is the fixed handshake GUID from RFC 6455 §1.3.
const websocketGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsMaxPayload bounds one client frame; subscribe/register requests are
// small, so anything larger is hostile or broken.
const wsMaxPayload = 1 << 20

// wsMaxResultFrame bounds one server result frame on the subscriber's
// side. A seed carries the whole standing result in one frame, so the
// request bound is far too small for it; this one only keeps a broken
// peer from making the subscriber allocate without limit.
const wsMaxResultFrame = 64 << 20

// FrameTooLargeError is returned by a Subscriber when the server sends a
// result frame larger than the subscriber accepts.
type FrameTooLargeError struct {
	Size, Limit int64
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("websocket: result frame of %d bytes exceeds the subscriber's %d-byte limit", e.Size, e.Limit)
}

// WebSocket opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

var errWSClosed = errors.New("websocket: connection closed")

// wsAcceptKey computes the Sec-WebSocket-Accept handshake proof.
func wsAcceptKey(key string) string {
	h := sha1.Sum([]byte(key + websocketGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header value
// contains the token (case-insensitive) — Connection headers routinely
// carry "keep-alive, Upgrade".
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// wsConn is one upgraded connection. Reads are single-goroutine (the
// API's receive loop); writes are mutex-serialized so the result pump
// and pong replies can interleave safely.
type wsConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex
	// wbuf is where a frame is assembled before its one Write; kept
	// between frames up to wsMaxKeptWriteBuffer. Guarded by wmu.
	wbuf []byte
}

// wsMaxKeptWriteBuffer bounds the frame buffer a connection keeps between
// writes: a seed frame carrying a whole standing result is assembled in a
// buffer of its own and let go.
const wsMaxKeptWriteBuffer = 64 << 10

// appendWSHeader appends the header of a final, single-frame message of n
// payload bytes: the length in its shortest form and, on a client frame,
// the mask bit — the masking key follows it.
func appendWSHeader(dst []byte, opcode byte, n int, masked bool) []byte {
	var maskBit byte
	if masked {
		maskBit = 0x80
	}
	dst = append(dst, 0x80|opcode) // FIN, no extensions
	switch {
	case n < 126:
		return append(dst, maskBit|byte(n))
	case n < 1<<16:
		return binary.BigEndian.AppendUint16(append(dst, maskBit|126), uint16(n))
	default:
		return binary.BigEndian.AppendUint64(append(dst, maskBit|127), uint64(n))
	}
}

// wsUpgrade performs the server handshake and hijacks the connection.
// On failure it writes the HTTP error itself and returns nil.
func wsUpgrade(w http.ResponseWriter, r *http.Request) *wsConn {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method", "subscribe requires GET")
		return nil
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", "websocket") {
		httpError(w, http.StatusBadRequest, "handshake", "not a websocket upgrade request")
		return nil
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "handshake", "missing Sec-WebSocket-Key")
		return nil
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "handshake", "connection cannot be hijacked")
		return nil
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "handshake", err.Error())
		return nil
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil
	}
	return &wsConn{conn: conn, br: rw.Reader}
}

// wsMaxHeader is the longest frame header a server writes: two bytes and
// an eight-byte length.
const wsMaxHeader = 10

// beginFrame returns the kept buffer with room for the longest header at
// its front; the payload is appended behind it. The caller holds wmu from
// here to endFrame.
func (c *wsConn) beginFrame() []byte {
	var room [wsMaxHeader]byte
	return append(c.wbuf[:0], room[:]...)
}

// endFrame writes one unmasked (server→client) frame: the header, whose
// size the payload's decides, goes right before the payload, and both
// leave in a single Write, so a result costs one system call and, on a
// socket without Nagle, one segment.
func (c *wsConn) endFrame(buf []byte, opcode byte) error {
	var hdr [wsMaxHeader]byte
	h := appendWSHeader(hdr[:0], opcode, len(buf)-wsMaxHeader, false)
	frame := buf[wsMaxHeader-len(h):]
	copy(frame, h)
	if cap(buf) <= wsMaxKeptWriteBuffer {
		c.wbuf = buf
	}
	_, err := c.conn.Write(frame)
	return err
}

func (c *wsConn) writeFrame(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.endFrame(append(c.beginFrame(), payload...), opcode)
}

// WriteResult sends one delivery as a text message, encoded by codec
// straight into the frame buffer.
func (c *wsConn) WriteResult(codec Codec, id int64, res Result) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := codec.AppendResult(c.beginFrame(), id, res)
	if err != nil {
		return err
	}
	return c.endFrame(buf, opText)
}

// WriteText sends one text message.
func (c *wsConn) WriteText(payload []byte) error { return c.writeFrame(opText, payload) }

// Close sends a close frame (best-effort) and closes the connection.
func (c *wsConn) Close() error {
	_ = c.writeFrame(opClose, nil)
	return c.conn.Close()
}

// ReadMessage reads the next text or binary message, transparently
// answering pings and returning errWSClosed on a close frame. Control
// frames interleaved between data frames are handled; fragmented data
// frames are rejected (the API's messages are single-frame by
// construction).
func (c *wsConn) ReadMessage() ([]byte, error) {
	for {
		opcode, payload, err := readWSFrame(c.br, wsMaxPayload)
		if err != nil {
			return nil, err
		}
		switch opcode {
		case opText, opBinary:
			return payload, nil
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// unsolicited pong: ignore
		case opClose:
			_ = c.writeFrame(opClose, nil)
			return nil, errWSClosed
		}
	}
}

// readWSHeader reads a frame header up to the masking key, held to the
// subset both sides speak: no extensions, no fragmentation, the data and
// control opcodes of RFC 6455, control payloads of at most 125 bytes, and
// the mask set on exactly the client's frames (masked says which side
// wrote it). Anything else is an error, never a panic and never skipped:
// the fuzz target feeds the server's reader arbitrary bytes.
func readWSHeader(br *bufio.Reader, masked bool) (opcode byte, length uint64, err error) {
	hdr, err := readBigEndian(br, 2)
	if err != nil {
		return 0, 0, err
	}
	b0, b1 := byte(hdr>>8), byte(hdr)
	if b0&0x70 != 0 {
		return 0, 0, errors.New("websocket: reserved bits set")
	}
	opcode = b0 & 0x0F
	if opcode == opContinuation || b0&0x80 == 0 {
		return 0, 0, errors.New("websocket: fragmented frames not supported")
	}
	switch opcode {
	case opText, opBinary, opClose, opPing, opPong:
	default:
		return 0, 0, fmt.Errorf("websocket: unsupported opcode %#x", opcode)
	}
	switch {
	case masked && b1&0x80 == 0:
		return 0, 0, errors.New("websocket: client frame not masked")
	case !masked && b1&0x80 != 0:
		return 0, 0, errors.New("websocket: server frame masked")
	}
	switch length = uint64(b1 & 0x7F); length {
	case 126:
		length, err = readBigEndian(br, 2)
	case 127:
		length, err = readBigEndian(br, 8)
	}
	if err != nil {
		return 0, 0, err
	}
	if opcode >= opClose && length > 125 {
		return 0, 0, errors.New("websocket: oversized control frame")
	}
	return opcode, length, nil
}

// readBigEndian reads the next n (at most 8) bytes of br as a big-endian
// number — from the reader's own buffer, so reading a header allocates
// nothing.
func readBigEndian(br *bufio.Reader, n int) (uint64, error) {
	b, err := br.Peek(n)
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	_, err = br.Discard(n)
	return v, err
}

// readWSFrame decodes one client frame: masked, and at most maxPayload
// bytes.
func readWSFrame(br *bufio.Reader, maxPayload int64) (opcode byte, payload []byte, err error) {
	opcode, length, err := readWSHeader(br, true)
	if err != nil {
		return 0, nil, err
	}
	if length > uint64(maxPayload) {
		return 0, nil, fmt.Errorf("websocket: frame of %d bytes exceeds limit", length)
	}
	key, err := readBigEndian(br, 4)
	if err != nil {
		return 0, nil, err
	}
	var mask [4]byte
	binary.BigEndian.PutUint32(mask[:], uint32(key))
	payload = make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	for i := range payload {
		payload[i] ^= mask[i&3]
	}
	return opcode, payload, nil
}

// wsClient is the test/cmd-side counterpart: dial, handshake, and
// exchange single-frame text messages. Client frames are masked as the
// RFC requires; the mask is derived from a counter — predictability is
// fine, the mask exists to defeat proxy cache poisoning, not for
// secrecy.
type wsClient struct {
	conn net.Conn
	br   *bufio.Reader
	ctr  uint32
	wmu  sync.Mutex
	// rbuf is what ReadMessage reads a payload into; kept between messages
	// up to wsMaxKeptWriteBuffer, as the server keeps its write buffer.
	rbuf []byte
}

// wsDial connects to url (http://host/path form) and performs the
// client handshake.
func wsDial(rawURL string, timeout time.Duration) (*wsClient, error) {
	trimmed := strings.TrimPrefix(strings.TrimPrefix(rawURL, "ws://"), "http://")
	slash := strings.IndexByte(trimmed, '/')
	host, path := trimmed, "/"
	if slash >= 0 {
		host, path = trimmed[:slash], trimmed[slash:]
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString([]byte("xcql-subscribe16")) // static nonce: the accept check is structural
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("websocket: handshake rejected: %s", strings.TrimSpace(status))
	}
	accepted := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok &&
			strings.EqualFold(strings.TrimSpace(k), "Sec-WebSocket-Accept") &&
			strings.TrimSpace(v) == wsAcceptKey(key) {
			accepted = true
		}
	}
	if !accepted {
		conn.Close()
		return nil, errors.New("websocket: missing or wrong Sec-WebSocket-Accept")
	}
	return &wsClient{conn: conn, br: br}, nil
}

// WriteText sends one masked text frame.
func (c *wsClient) WriteText(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.ctr++
	var mask [4]byte
	binary.BigEndian.PutUint32(mask[:], c.ctr*2654435761)
	return c.writeMasked(opText, mask, payload)
}

// writeMasked assembles one client frame — header, masking key, payload
// masked on its way in — and writes it in one go. The caller holds wmu.
func (c *wsClient) writeMasked(opcode byte, mask [4]byte, payload []byte) error {
	buf := make([]byte, 0, 14+len(payload))
	buf = append(appendWSHeader(buf, opcode, len(payload), true), mask[:]...)
	for i, b := range payload {
		buf = append(buf, b^mask[i&3])
	}
	_, err := c.conn.Write(buf)
	return err
}

// ReadMessage reads the next server text message (server frames are
// unmasked), held to what the server's reader holds a client to. The bytes
// are valid until the next ReadMessage, which reads into the same buffer:
// decode them, or copy them, first.
func (c *wsClient) ReadMessage() ([]byte, error) {
	for {
		opcode, length, err := readWSHeader(c.br, false)
		if err != nil {
			return nil, err
		}
		if length > wsMaxResultFrame {
			return nil, &FrameTooLargeError{Size: int64(length), Limit: wsMaxResultFrame}
		}
		payload := c.rbuf[:0]
		if uint64(cap(payload)) < length {
			payload = make([]byte, 0, length)
			if length <= wsMaxKeptWriteBuffer {
				c.rbuf = payload
			}
		}
		payload = payload[:length]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, err
		}
		switch opcode {
		case opText, opBinary:
			return payload, nil
		case opPing:
			// server pings are unexpected in this protocol; answer anyway
			_ = c.writePong(payload)
		case opClose:
			return nil, errWSClosed
		}
	}
}

func (c *wsClient) writePong(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeMasked(opPong, [4]byte{}, payload)
}

// Close closes the client connection.
func (c *wsClient) Close() error { return c.conn.Close() }

// DialSubscribe is the exported client entry (cmd/xcqlsub and tests):
// dial the API, register the query over the socket, and return a
// receive function yielding decoded results.
func DialSubscribe(addr string, req RegisterRequest, timeout time.Duration) (*Subscriber, error) {
	c, err := wsDial("http://"+addr+"/v1/subscribe", timeout)
	if err != nil {
		return nil, err
	}
	msg, err := encodeJSON(req)
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := c.WriteText(msg); err != nil {
		c.Close()
		return nil, err
	}
	first, err := c.ReadMessage()
	if err != nil {
		c.Close()
		return nil, err
	}
	ack, err := decodeAck(first)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &Subscriber{c: c, ID: ack.ID, Group: ack.Group}, nil
}

// Subscriber is a live query-and-subscribe connection.
type Subscriber struct {
	c *wsClient
	r resultReader
	// ID is the server-side registration id.
	ID int64
	// Group is the registration's access paths (RegStats.Group).
	Group string
}

// Next blocks for the next result frame. Its strings are substrings of
// one string per frame.
func (s *Subscriber) Next() (WireResult, error) {
	msg, err := s.c.ReadMessage()
	if err != nil {
		return WireResult{}, err
	}
	return s.r.read(msg)
}

// Close tears the subscription down (the server unregisters the query).
func (s *Subscriber) Close() error { return s.c.Close() }
