// Structured logging for the stream pipeline.
//
// Every component (Server, Client, FaultInjector) carries an optional
// *slog.Logger installed with SetLogger. Logging is OFF by default (nil
// logger) and the disabled path is a single atomic pointer load and nil
// check — no slog.Attr construction, no allocation — guarded by
// BenchmarkStreamLogOverhead and TestDisabledObservabilityAllocatesNothing.
// Call sites therefore always take the form
//
//	if l := x.log(); l != nil {
//		l.LogAttrs(...)
//	}
//
// so the attribute slice is only built when a logger is installed.
// Events carry a consistent attribute vocabulary: component, stream,
// seq, fillerID (and event-specific extras), so one handler can fan the
// whole pipeline into a single queryable log.
package stream

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// logHolder is the shared nil-by-default logger slot embedded in each
// component. The zero value is ready to use and disabled.
type logHolder struct {
	l atomic.Pointer[slog.Logger]
}

// SetLogger installs (or, with nil, removes) the component's structured
// logger. Safe to call concurrently with the hot path.
func (h *logHolder) SetLogger(l *slog.Logger) {
	h.l.Store(l)
}

// log returns the installed logger, or nil when logging is disabled.
func (h *logHolder) log() *slog.Logger {
	return h.l.Load()
}

// logCtx is the context handed to slog handlers; the stream hot paths
// have no request context of their own.
var logCtx = context.Background()
