package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"xcql/internal/inc"
)

// Codec encodes registry deliveries for the wire. The API ships JSON;
// alternative encodings (e.g. a binary frame format) plug in through
// API.RegisterCodec and are selected per subscription with the codec
// request field — the codec is a seam, not a fork: every codec sees the
// same Result.
type Codec interface {
	// Name is the codec's request-selector (e.g. "json").
	Name() string
	// ContentType is the MIME type of encoded frames.
	ContentType() string
	// EncodeResult renders one delivery for registration id.
	EncodeResult(id int64, res Result) ([]byte, error)
}

// WireResult is the JSON wire form of one delivery. Delta items are
// serialized with the same item serialization the equivalence harness
// diffs on (nodes as XML, atomics as string values), so what a
// subscriber reads over the wire is exactly the delta an embedded
// consumer would see.
type WireResult struct {
	Type     string   `json:"type"` // always "result"
	ID       int64    `json:"id"`
	At       string   `json:"at"`
	Delta    []string `json:"delta"`
	Degraded string   `json:"degraded,omitempty"`
	Err      string   `json:"error,omitempty"`
	// Trace is the hex trace id of the arrival that produced this
	// delivery (omitted when untraced): the subscriber-side key into
	// GET /v1/tracez?trace=<id>. Old clients ignore the extra field;
	// old servers simply never emit it.
	Trace string `json:"trace,omitempty"`
}

// JSONCodec is the built-in JSON result codec.
type JSONCodec struct{}

// Name implements Codec.
func (JSONCodec) Name() string { return "json" }

// ContentType implements Codec.
func (JSONCodec) ContentType() string { return "application/json" }

// EncodeResult implements Codec.
func (JSONCodec) EncodeResult(id int64, res Result) ([]byte, error) {
	w := WireResult{
		Type:     "result",
		ID:       id,
		At:       res.At.Format(time.RFC3339Nano),
		Delta:    inc.ItemSerials(res.Delta),
		Degraded: res.Degraded,
	}
	if res.Err != nil {
		w.Err = res.Err.Error()
	}
	if res.TraceID != 0 {
		w.Trace = fmt.Sprintf("%016x", res.TraceID)
	}
	// result items are XML: with HTML escaping on, every '<' and '>' of
	// theirs would travel as six bytes
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(w); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}
