package registry

// The HTTP + WebSocket front of the registry — the piece that turns the
// library into a service. Register XCQL text, receive a stream of
// JSON-encoded deltas; the output encoding is a codec seam (JSON built
// in). Endpoints:
//
//	POST   /v1/query       register {query, mode} → {id, group}
//	DELETE /v1/query?id=N  unregister
//	GET    /v1/subscribe   WebSocket: ?id=N drains an existing
//	                       registration; with no id the first client
//	                       frame is a register request (register +
//	                       subscribe in one connection, unregistered on
//	                       close)
//	POST   /v1/eval        one-shot evaluation {query, mode, at} → {items}
//	GET    /v1/registryz   sharing stats (registry, groups, registrations)
//
// Every error is a structured JSON {error: {kind, message}} — malformed
// XCQL comes back kind "compile", admission-control trips kind
// "overload" with HTTP 429. The request decoder and the WebSocket frame
// reader are fuzzed against arbitrary bytes (FuzzQueryAPIRequest).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xcql/internal/inc"
	"xcql/internal/obs"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// maxRequestBody bounds register/eval request bodies.
const maxRequestBody = 1 << 20

// maxSubscribeBuffer bounds the client-requested delivery-channel
// capacity: the channel is allocated eagerly, so an unchecked value is
// a one-request memory bomb.
const maxSubscribeBuffer = 1 << 16

// CompileFunc compiles XCQL text under a physical plan; the engine's
// Compile satisfies it.
type CompileFunc func(src string, mode xcql.Mode) (*xcql.Query, error)

// API serves a registry over HTTP + WebSocket. It is an http.Handler.
type API struct {
	reg     *Registry
	compile CompileFunc
	clock   func() time.Time

	mu     sync.Mutex
	codecs map[string]Codec
	// tracer backs GET /v1/tracez; nil = 404 (tracing not enabled).
	tracer *obs.FlightRecorder
	// owned tracks registrations created over HTTP (POST /v1/query) so
	// subscribe/DELETE can find them by id. WebSocket-scoped
	// registrations live and die with their connection and are not in
	// this map once closed.
	owned map[int64]*Registration
}

// NewAPI builds the service front for a registry.
func NewAPI(reg *Registry, compile CompileFunc) *API {
	a := &API{
		reg:     reg,
		compile: compile,
		clock:   time.Now,
		codecs:  map[string]Codec{},
		owned:   map[int64]*Registration{},
	}
	a.RegisterCodec(JSONCodec{})
	return a
}

// RegisterCodec installs (or replaces) a result codec under its Name.
func (a *API) RegisterCodec(c Codec) {
	a.mu.Lock()
	a.codecs[c.Name()] = c
	a.mu.Unlock()
}

// SetFlightRecorder exposes a flight recorder at GET /v1/tracez (and
// wires it into the registry so deliveries carry span trees). nil
// detaches the endpoint.
func (a *API) SetFlightRecorder(rec *obs.FlightRecorder) {
	a.mu.Lock()
	a.tracer = rec
	a.mu.Unlock()
	a.reg.SetFlightRecorder(rec)
}

// SetClock pins the one-shot /v1/eval instant (tests); nil restores
// time.Now.
func (a *API) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	a.mu.Lock()
	a.clock = clock
	a.mu.Unlock()
}

// RegisterRequest is the JSON body of POST /v1/query and the first
// frame of a bare /v1/subscribe connection.
type RegisterRequest struct {
	// Query is the XCQL source text.
	Query string `json:"query"`
	// Mode selects the physical plan ("CaQ", "QaC", "QaC+"; "QaC++" is
	// accepted as QaC+, see xcql.ParseMode); empty means QaC+.
	Mode string `json:"mode,omitempty"`
	// Incremental is ignored: every registration runs the incremental
	// engine. Clients that still send it are accepted.
	Incremental bool `json:"incremental,omitempty"`
	// Codec selects the result encoding (default "json").
	Codec string `json:"codec,omitempty"`
	// Buffer overrides the delivery-channel capacity.
	Buffer int `json:"buffer,omitempty"`
}

// registerAck is the JSON acknowledgement of a successful registration.
type registerAck struct {
	Type  string `json:"type"` // "registered"
	ID    int64  `json:"id"`
	Group string `json:"group"`
	Mode  string `json:"mode"`
}

// wireError is the structured error envelope every endpoint returns.
type wireError struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

func encodeJSON(v any) ([]byte, error) { return json.Marshal(v) }

func decodeAck(b []byte) (registerAck, error) {
	var ack registerAck
	if err := json.Unmarshal(b, &ack); err != nil {
		return ack, err
	}
	if ack.Type != "registered" {
		var we wireError
		if json.Unmarshal(b, &we) == nil && we.Error.Message != "" {
			return ack, fmt.Errorf("register rejected: %s: %s", we.Error.Kind, we.Error.Message)
		}
		return ack, fmt.Errorf("unexpected first frame %q", b)
	}
	return ack, nil
}

func httpError(w http.ResponseWriter, status int, kind, msg string) {
	var we wireError
	we.Error.Kind = kind
	we.Error.Message = msg
	b, _ := json.Marshal(we)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/query":
		switch r.Method {
		case http.MethodPost:
			a.handleRegister(w, r)
		case http.MethodDelete:
			a.handleUnregister(w, r)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method", "use POST to register, DELETE to unregister")
		}
	case "/v1/subscribe":
		a.handleSubscribe(w, r)
	case "/v1/eval":
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "method", "use POST")
			return
		}
		a.handleEval(w, r)
	case "/v1/registryz":
		a.handleRegistryz(w)
	case "/v1/tracez":
		a.mu.Lock()
		rec := a.tracer
		a.mu.Unlock()
		if rec == nil {
			httpError(w, http.StatusNotFound, "tracez", "no flight recorder attached")
			return
		}
		rec.ServeHTTP(w, r)
	default:
		httpError(w, http.StatusNotFound, "route", "unknown path "+r.URL.Path)
	}
}

// decodeRegisterRequest parses and validates a register body. Exposed
// to the fuzz target: arbitrary bytes must produce a request or an
// error, never a panic.
func decodeRegisterRequest(body []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("invalid JSON: %w", err)
	}
	if req.Query == "" {
		return req, errors.New("missing query")
	}
	if len(req.Query) > maxRequestBody {
		return req, errors.New("query too large")
	}
	if req.Buffer < 0 || req.Buffer > maxSubscribeBuffer {
		return req, fmt.Errorf("buffer out of range [0, %d]", maxSubscribeBuffer)
	}
	return req, nil
}

// register compiles and registers one request, mapping failures to
// (kind, HTTP status) pairs shared by the HTTP and WebSocket paths.
func (a *API) register(req RegisterRequest, opts Options) (*Registration, *xcql.Query, int, string, error) {
	mode := xcql.QaCPlus
	if req.Mode != "" {
		var err error
		mode, err = xcql.ParseMode(req.Mode)
		if err != nil {
			return nil, nil, http.StatusBadRequest, "mode", err
		}
	}
	q, err := a.compile(req.Query, mode)
	if err != nil {
		return nil, nil, http.StatusBadRequest, "compile", err
	}
	if req.Buffer > 0 {
		opts.Buffer = req.Buffer
	}
	reg, err := a.reg.Register(q, opts)
	if err != nil {
		var oe *xcql.OverloadError
		if errors.As(err, &oe) {
			return nil, nil, http.StatusTooManyRequests, "overload", err
		}
		return nil, nil, http.StatusBadRequest, "register", err
	}
	return reg, q, http.StatusOK, "", nil
}

func (a *API) codecFor(name string) (Codec, error) {
	if name == "" {
		name = "json"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.codecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown codec %q", name)
	}
	return c, nil
}

func (a *API) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil || len(body) > maxRequestBody {
		httpError(w, http.StatusBadRequest, "body", "unreadable or oversized request body")
		return
	}
	req, err := decodeRegisterRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "request", err.Error())
		return
	}
	if _, err := a.codecFor(req.Codec); err != nil {
		httpError(w, http.StatusBadRequest, "codec", err.Error())
		return
	}
	reg, q, status, kind, err := a.register(req, Options{})
	if err != nil {
		httpError(w, status, kind, err.Error())
		return
	}
	a.mu.Lock()
	a.owned[reg.ID()] = reg
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, registerAck{
		Type: "registered", ID: reg.ID(), Group: reg.Stats().Group, Mode: q.Mode.String(),
	})
}

func (a *API) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "request", "missing or invalid id")
		return
	}
	a.mu.Lock()
	reg := a.owned[id]
	delete(a.owned, id)
	a.mu.Unlock()
	if reg == nil {
		httpError(w, http.StatusNotFound, "unknown", fmt.Sprintf("no registration %d", id))
		return
	}
	reg.Close()
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// handleSubscribe upgrades to WebSocket and pumps a registration's
// results. ?id=N drains a POST-created registration; without id, the
// first client frame is a RegisterRequest and the registration's
// lifetime is the connection's.
func (a *API) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	idParam := r.URL.Query().Get("id")
	var reg *Registration
	ownedByConn := false
	if idParam != "" {
		id, err := strconv.ParseInt(idParam, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "request", "invalid id")
			return
		}
		a.mu.Lock()
		reg = a.owned[id]
		a.mu.Unlock()
		if reg == nil {
			httpError(w, http.StatusNotFound, "unknown", fmt.Sprintf("no registration %d", id))
			return
		}
	}
	codec, err := a.codecFor(r.URL.Query().Get("codec"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "codec", err.Error())
		return
	}
	conn := wsUpgrade(w, r)
	if conn == nil {
		return
	}
	defer conn.Close()
	if reg == nil {
		// register-over-socket: first frame carries the request
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		req, err := decodeRegisterRequest(msg)
		if err != nil {
			conn.WriteText(wsErrorFrame("request", err.Error()))
			return
		}
		if req.Codec != "" {
			if codec, err = a.codecFor(req.Codec); err != nil {
				conn.WriteText(wsErrorFrame("codec", err.Error()))
				return
			}
		}
		var kind string
		reg, _, _, kind, err = a.register(req, Options{})
		if err != nil {
			conn.WriteText(wsErrorFrame(kind, err.Error()))
			return
		}
		ownedByConn = true
	}
	if ownedByConn {
		defer reg.Close()
	}
	ack, err := encodeJSON(registerAck{
		Type: "registered", ID: reg.ID(), Group: reg.Stats().Group, Mode: reg.Query().Mode.String(),
	})
	if err != nil || conn.WriteText(ack) != nil {
		return
	}
	// reader goroutine: drains pings/close so the connection dying stops
	// the pump even while it blocks on reg.C()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case res, ok := <-reg.C():
			if !ok {
				return
			}
			if err := conn.WriteResult(codec, reg.ID(), res); err != nil {
				return
			}
		case <-done:
			return
		}
	}
}

func wsErrorFrame(kind, msg string) []byte {
	var we wireError
	we.Error.Kind = kind
	we.Error.Message = msg
	b, _ := json.Marshal(we)
	return b
}

// evalRequest is the JSON body of POST /v1/eval.
type evalRequest struct {
	Query string `json:"query"`
	Mode  string `json:"mode,omitempty"`
	// At pins the evaluation instant (RFC 3339); empty means the API
	// clock's now.
	At string `json:"at,omitempty"`
}

func (a *API) handleEval(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil || len(body) > maxRequestBody {
		httpError(w, http.StatusBadRequest, "body", "unreadable or oversized request body")
		return
	}
	var req evalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "request", "invalid JSON: "+err.Error())
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "request", "missing query")
		return
	}
	mode := xcql.QaCPlus
	if req.Mode != "" {
		if mode, err = xcql.ParseMode(req.Mode); err != nil {
			httpError(w, http.StatusBadRequest, "mode", err.Error())
			return
		}
	}
	q, err := a.compile(req.Query, mode)
	if err != nil {
		httpError(w, http.StatusBadRequest, "compile", err.Error())
		return
	}
	a.mu.Lock()
	at := a.clock()
	a.mu.Unlock()
	if req.At != "" {
		if at, err = time.Parse(time.RFC3339Nano, req.At); err != nil {
			httpError(w, http.StatusBadRequest, "request", "invalid at: "+err.Error())
			return
		}
	}
	seq, err := q.Eval(at)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var oe *xcql.OverloadError
		if errors.As(err, &oe) {
			status = http.StatusTooManyRequests
		}
		httpError(w, status, "eval", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(appendEvalBody(nil, at, seq))
}

// appendEvalBody appends the body of a successful POST /v1/eval to dst: the
// object {"at", "items"} as encoding/json renders it with HTML escaping off,
// each item serialized as inc.ItemSerial does, written field by field. A
// node item is encoded into one buffer kept for all of them, grown to an
// item's exact size when it is too small, and escaped from there, so an
// item costs no string of its own.
func appendEvalBody(dst []byte, at time.Time, seq xq.Sequence) []byte {
	dst = append(dst, `{"at":"`...)
	dst = at.AppendFormat(dst, time.RFC3339Nano) // digits and "-:.TZ+": nothing to escape
	dst = append(dst, `","items":[`...)
	var item []byte
	for i, it := range seq {
		if i > 0 {
			dst = append(dst, ',')
		}
		if n, ok := it.(*xmldom.Node); ok {
			if size := n.EncodedLen(); cap(item) < size {
				item = make([]byte, 0, size)
			}
			item = n.AppendTo(item[:0])
			dst = appendJSONString(dst, item)
		} else {
			dst = appendJSONString(dst, inc.ItemSerial(it))
		}
	}
	return append(dst, "]}"...)
}

// handleRegistryz reports the sharing stats: the JSON sibling of
// /metricsz scoped to the registry.
func (a *API) handleRegistryz(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":         a.reg.Stats(),
		"groups":        a.reg.Groups(),
		"registrations": a.reg.Registrations(),
	})
}
