package stream

import (
	"log/slog"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
)

// DurableLog is the slice of a durable segment store the server uses to
// serve resume positions older than its in-memory replay window. It is
// satisfied by *segstore.Store; the indirection keeps the stream layer
// free of a storage dependency (and lets tests inject failures).
//
// The contract mirrors the segment store's: Append persists one
// seq-stamped fragment (write-ahead of delivery), ReadSince returns every
// persisted fragment with Seq > afterSeq in sequence order, and
// SeqCoverage reports the contiguous sequence range the log can replay
// without holes. A log that also has AppendBatch(fs []*fragment.Fragment)
// error, persisting a batch with one sync as *segstore.Store does, is
// written a batch at a time; any other a fragment at a time.
type DurableLog interface {
	Append(f *fragment.Fragment) error
	ReadSince(afterSeq uint64) ([]*fragment.Fragment, error)
	SeqCoverage() (min, max uint64, contiguous bool)
}

// AttachDurable wires a durable log under the server: every subsequent
// Publish is written through to it before delivery — queued, and written
// in batches with one fsync each by the server's committer — and
// subscriptions whose resume position precedes the in-memory replay
// window are bridged from the log (snapshot + delta bootstrap) instead
// of surfacing an unrecoverable gap. Fragments queued for the log it
// replaces are written to that log and delivered first. nil detaches:
// Publish delivers at once again.
//
// A durable write failure does not block delivery — the radio keeps
// transmitting — but it is sticky: the log is considered broken from the
// first error on (counted in Stats().StorageErrors, logged), and the
// advertised resume floor falls back to the in-memory window so clients
// are never promised a bootstrap the server can no longer serve.
func (s *Server) AttachDurable(d DurableLog) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.delivered < s.queued {
		s.cond.Wait()
	}
	s.attachLocked(d)
}

// attachLocked makes d the durable log, healthy, and starts the
// committer with the first log. The caller holds s.mu and nothing is
// queued.
func (s *Server) attachLocked(d DurableLog) {
	s.durable = d
	s.durableBroken = ""
	s.durableGen++
	if d != nil && s.commitDone == nil && !s.closed {
		s.queue = make([]pending, 0, commitQueueLen)
		s.commitDone = make(chan struct{})
		go s.commit()
	}
}

// RecoverServer rebuilds a server from its durable log after a restart:
// the persisted fragments seed the replay window, the sequence counter
// resumes after the highest persisted seq (so restarted streams stay
// monotone and resuming clients cannot collide with recycled numbers),
// and the event-time watermark is restored. The log stays attached, so
// new publishes keep writing through; Close stops the committer that
// writes them.
//
// The whole persisted log is loaded into the replay window; callers with
// memory bounds should SetHistoryLimit afterwards — trimmed positions
// remain servable through the durable bridge.
func RecoverServer(name string, structure *tagstruct.Structure, d DurableLog) (*Server, error) {
	frames, err := d.ReadSince(0)
	if err != nil {
		return nil, err
	}
	s := NewServer(name, structure)
	for _, f := range frames {
		if f.Seq > s.nextSeq {
			s.nextSeq = f.Seq
		}
		if f.ValidTime.After(s.watermark) {
			s.watermark = f.ValidTime
		}
	}
	s.history = append(s.history, frames...)
	s.delivered = s.nextSeq
	s.mu.Lock()
	s.attachLocked(d)
	s.mu.Unlock()
	if l := s.log(); l != nil {
		l.LogAttrs(logCtx, slog.LevelInfo, "server recovered from durable log",
			slog.String("component", "server"), slog.String("stream", name),
			slog.Int("frames", len(frames)), slog.Uint64("seq", s.nextSeq))
	}
	return s, nil
}

// resumeFloorLocked is the lowest resume position ("after" in the
// registration handshake) the server can serve losslessly right now
// (ServerStats.ResumeFloor). Without a durable log this is
// OldestRetained-1 — the in-memory window; with a healthy one whose
// coverage joins up with the window, positions all the way back to the
// log's first sequence number (usually 0: the whole stream) are servable
// via the durable bridge. The caller holds s.mu.
func (s *Server) resumeFloorLocked() uint64 {
	// in-memory floor: the window [oldest, delivered] serves after >=
	// oldest-1; an empty window serves only clients already at delivered
	// (what is queued for the durable log reaches every subscription)
	floor := s.delivered
	if len(s.history) > 0 {
		floor = s.history[0].Seq - 1
	}
	if s.durable == nil || s.durableBroken != "" {
		return floor
	}
	min, max, contiguous := s.durable.SeqCoverage()
	if !contiguous || min == 0 {
		return floor
	}
	// the durable range [min, max] only lowers the floor if it joins up
	// with the in-memory window — a hole between them is unservable
	if max >= floor && min-1 < floor {
		return min - 1
	}
	return floor
}

// replayLocked assembles the replay for a subscription resuming from
// afterSeq: when the in-memory window no longer reaches back that far
// and the durable log does, the missing prefix is read from the log (a
// bootstrap, counted in Stats().Bootstraps) and the retained window
// supplies the rest. The caller holds s.mu.
func (s *Server) replayLocked(afterSeq uint64) []*fragment.Fragment {
	var oldest uint64
	if len(s.history) > 0 {
		oldest = s.history[0].Seq
	}
	var replay []*fragment.Fragment
	windowShort := oldest > 0 && oldest > afterSeq+1
	if windowShort && s.durable != nil && s.durableBroken == "" {
		// a log whose coverage starts after afterSeq+1 still bridges what
		// it has — the client writes off only [afterSeq+1, floor] — but,
		// mirroring resumeFloorLocked, only a coverage that joins up with
		// the retained window (max >= oldest-1) may bridge at all: a log
		// that stops short would hand the subscriber a replay with a
		// silent hole between its last frame and the window
		if min, max, contiguous := s.durable.SeqCoverage(); contiguous && min > 0 && min < oldest && max >= oldest-1 {
			frames, err := s.durable.ReadSince(afterSeq)
			switch {
			case err != nil:
				s.storageErrors++
				if l := s.log(); l != nil {
					l.LogAttrs(logCtx, slog.LevelError, "durable bridge read failed",
						slog.String("component", "server"), slog.String("stream", s.name),
						slog.Uint64("after", afterSeq), slog.String("err", err.Error()))
				}
			default:
				for _, f := range frames {
					if f.Seq < oldest {
						replay = append(replay, f)
					}
				}
				if len(replay) > 0 {
					s.bootstraps++
					if l := s.log(); l != nil {
						l.LogAttrs(logCtx, slog.LevelInfo, "resume bridged from durable log",
							slog.String("component", "server"), slog.String("stream", s.name),
							slog.Uint64("after", afterSeq), slog.Int("bridged", len(replay)))
					}
				}
			}
		}
	}
	for _, f := range s.history {
		if f.Seq > afterSeq {
			replay = append(replay, f)
		}
	}
	return replay
}
