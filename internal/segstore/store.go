package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// Options tune a Store. The zero value is production defaults: real
// filesystem, 1 MiB segments, fsync on every append, manual snapshots.
type Options struct {
	// FS is the filesystem; nil means the real one. Tests inject FaultFS.
	FS FS
	// MaxSegmentBytes rolls the active segment past this size (<= 0
	// means 1 MiB).
	MaxSegmentBytes int64
	// NoSync skips the per-append fsync: faster, but a crash can lose
	// acknowledged appends (they become torn tail at recovery). The
	// default — sync every append — is what the crash-point harness
	// proves correct.
	NoSync bool
	// SnapshotEvery takes an automatic snapshot after that many appends
	// (0 = snapshots only via Snapshot()).
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 1 << 20
	}
	return o
}

// RecoveryReport says exactly what Open found and did. Degraded is
// non-empty when committed data may have been lost (a quarantined
// corrupt file); torn tails — uncommitted trailing bytes a crash left —
// are repaired silently-in-effect but still counted here, never hidden.
type RecoveryReport struct {
	Duration time.Duration
	// Segments and Frames are the live segment files and deduplicated
	// frames the store came back with (snapshot frames included in
	// Frames).
	Segments int
	Frames   int
	// SnapshotGen/SnapshotFrames describe the live snapshot (0/0: none).
	SnapshotGen    uint64
	SnapshotFrames int
	// Torn tail repair: trailing bytes of incomplete frames truncated.
	TornSegments int
	TornBytes    int64
	// Housekeeping: zero-length or magic-less segment leftovers removed,
	// *.tmp files removed, snapshot-covered segments and superseded
	// snapshots removed.
	EmptySegments     int
	TempFiles         int
	ObsoleteSegments  int
	ObsoleteSnapshots int
	// Corruption: files set aside as <name>.quarantine, the clean-prefix
	// frames salvaged out of them, and the bytes abandoned past the
	// corruption point.
	QuarantinedFiles []string
	QuarantinedBytes int64
	SalvagedFrames   int
	// MissingPredecessors counts the delta frames whose predecessor — the
	// version they extend, which the log held before them — did not
	// survive: a replay hands them out unlinked, no version, and a store
	// refuses them (fragment.MissingPredecessorError).
	MissingPredecessors int
	// Seq coverage of the recovered log (0/0 when no sequenced frames).
	MinSeq, MaxSeq uint64
	// Degraded is the explicit "data may be missing" verdict.
	Degraded string
}

// String renders the report on one line, CLI-friendly.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered %d frames in %d segments (snapshot gen=%d frames=%d) in %v",
		r.Frames, r.Segments, r.SnapshotGen, r.SnapshotFrames, r.Duration.Round(time.Microsecond))
	if r.TornSegments > 0 {
		s += fmt.Sprintf("; truncated %d torn bytes in %d segments", r.TornBytes, r.TornSegments)
	}
	if len(r.QuarantinedFiles) > 0 {
		s += fmt.Sprintf("; quarantined %d files (%d bytes abandoned, %d frames salvaged)",
			len(r.QuarantinedFiles), r.QuarantinedBytes, r.SalvagedFrames)
	}
	if r.Degraded != "" {
		s += "; DEGRADED: " + r.Degraded
	}
	return s
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Segments / SegmentBytes / Frames describe the live log (frames
	// counts segment frames plus snapshot frames, deduplicated).
	Segments     int
	SegmentBytes int64
	Frames       int
	// Appends / AppendErrors / Fsyncs count the write path.
	Appends      int64
	AppendErrors int64
	Fsyncs       int64
	// Snapshots taken, the live snapshot generation and its frame count.
	Snapshots      int64
	SnapshotGen    uint64
	SnapshotFrames int
	// Compactions completed and input segments consumed by them.
	Compactions     int64
	CompactedInputs int64
	// SegmentsSkipped counts segment files a filtered read pruned via
	// (tsid, validity-window) metadata without opening them.
	SegmentsSkipped int64
	// QuarantinedFrames counts corrupt frames skipped during runtime
	// reads (quarantine-and-continue after at-rest corruption).
	QuarantinedFrames int64
	// Recovery is what Open found.
	Recovery RecoveryReport
}

// segInfo is the in-memory metadata of one live segment file.
type segInfo struct {
	name     string // base name
	frames   int
	bytes    int64
	firstLSN uint64
	lastLSN  uint64
	minSeq   uint64
	maxSeq   uint64
	tsids    map[int]struct{}
	minVT    time.Time
	maxVT    time.Time
	hasVT    bool
}

func (si *segInfo) note(rec frameRec, frameBytes int64) {
	si.frames++
	si.bytes += frameBytes
	if si.firstLSN == 0 || rec.lsn < si.firstLSN {
		si.firstLSN = rec.lsn
	}
	if rec.lsn > si.lastLSN {
		si.lastLSN = rec.lsn
	}
	f := rec.frag
	if f == nil {
		return
	}
	if f.Seq > 0 {
		if si.minSeq == 0 || f.Seq < si.minSeq {
			si.minSeq = f.Seq
		}
		if f.Seq > si.maxSeq {
			si.maxSeq = f.Seq
		}
	}
	if si.tsids == nil {
		si.tsids = make(map[int]struct{})
	}
	si.tsids[f.TSID] = struct{}{}
	if !si.hasVT || f.ValidTime.Before(si.minVT) {
		si.minVT = f.ValidTime
	}
	if !si.hasVT || f.ValidTime.After(si.maxVT) {
		si.maxVT = f.ValidTime
	}
	si.hasVT = true
}

// snapInfo is the live snapshot's metadata.
type snapInfo struct {
	name    string
	gen     uint64
	count   int
	upToLSN uint64
}

// Store is the durable segment store. All methods are safe for
// concurrent use; one mutex serializes every durable mutation so the
// on-disk log order equals the append order.
type Store struct {
	dir  string
	fs   FS
	opts Options

	mu sync.Mutex
	// active write handle; nil until the first append and after any
	// append failure (the next append rolls a fresh segment).
	active     File
	activeSeg  *segInfo
	activeName string
	segs       []*segInfo // sealed segments, no particular order
	snap       *snapInfo
	nextLSN    uint64
	compactGen uint64

	// committed seq coverage across snapshot + segments
	minSeq, maxSeq uint64
	contiguous     bool

	sinceSnapshot int
	stats         Stats
	closed        bool
	// frame is the buffer every frame is encoded into before its write
	// (appendFrame), kept while no larger than maxKeptFrame.
	frame []byte

	// tracer, when set, records "segstore.append" (+ child
	// "segstore.fsync") spans for traced fragments. nil = off.
	tracer *obs.FlightRecorder
}

// SetFlightRecorder attaches a flight recorder: appends of fragments
// carrying a trace context record append and fsync spans. nil detaches.
func (s *Store) SetFlightRecorder(rec *obs.FlightRecorder) {
	s.mu.Lock()
	s.tracer = rec
	s.mu.Unlock()
}

// Open recovers (or creates) the store in dir and reports what recovery
// found. Open never silently narrows the log: torn tails are truncated
// and counted, corrupt files are quarantined with their clean prefix
// salvaged, and the report's Degraded field says out loud when committed
// data may be gone.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	opts = opts.withDefaults()
	start := time.Now()
	s := &Store{dir: dir, fs: opts.FS, opts: opts, nextLSN: 1, contiguous: true}
	rep := &RecoveryReport{}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segNames, snapNames []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if err := s.fs.Remove(filepath.Join(dir, name)); err == nil {
				rep.TempFiles++
			}
		case isSegName(name):
			segNames = append(segNames, name)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snapNames = append(snapNames, name)
		}
	}
	sort.Strings(segNames)
	sort.Strings(snapNames)

	// seed the compaction generation past every cseg already on disk —
	// whatever its fate below — so a post-restart compaction can never
	// name an output after a surviving input, rename over it, and then
	// delete it as "consumed"
	taken := make(map[string]bool, len(segNames))
	for _, name := range segNames {
		taken[name] = true
		if g := csegGen(name); g > s.compactGen {
			s.compactGen = g
		}
	}

	// Snapshots, newest first: the first valid one is live, older ones
	// are subsumed by it (it was built from everything committed) and
	// removed; an invalid newest is quarantined and the next older one
	// takes over — with a Degraded verdict, because segments it covered
	// may already be gone.
	var snapFrames []frameRec
	for i := len(snapNames) - 1; i >= 0; i-- {
		name := snapNames[i]
		if s.snap != nil {
			if err := s.fs.Remove(filepath.Join(dir, name)); err == nil {
				rep.ObsoleteSnapshots++
			}
			continue
		}
		info, frames, verr := s.loadSnapshot(name)
		if verr != nil {
			s.quarantine(name, rep)
			rep.Degraded = joinReason(rep.Degraded,
				fmt.Sprintf("snapshot %s invalid (%v): committed frames it covered may be lost", name, verr))
			continue
		}
		s.snap = info
		snapFrames = frames
	}

	// Segments in name order (name carries the first LSN).
	seen := make(map[uint64]bool, len(snapFrames))
	for _, rec := range snapFrames {
		seen[rec.lsn] = true
	}
	allSeqs := make(map[uint64]bool)
	noteSeqs := func(frames []frameRec) {
		for _, rec := range frames {
			if rec.frag != nil && rec.frag.Seq > 0 {
				allSeqs[rec.frag.Seq] = true
			}
		}
	}
	noteSeqs(snapFrames)
	liveFrames := len(snapFrames)
	// every file's frames, for the check that each delta frame's
	// predecessor survived, which runs when there is a delta at all
	replay, deltas := [][]frameRec{snapFrames}, hasDelta(snapFrames)
	keep := func(frames []frameRec) {
		replay = append(replay, frames)
		deltas = deltas || hasDelta(frames)
	}
	for _, name := range segNames {
		path := filepath.Join(dir, name)
		data, err := readAll(s.fs, path)
		if err != nil {
			return nil, nil, fmt.Errorf("segstore: reading %s: %w", name, err)
		}
		if len(data) < len(segMagic) {
			// a crash between create and the magic write leaves a stub
			if err := s.fs.Remove(path); err == nil {
				rep.EmptySegments++
			}
			continue
		}
		if string(data[:len(segMagic)]) != segMagic {
			s.quarantine(name, rep)
			rep.QuarantinedBytes += int64(len(data))
			rep.Degraded = joinReason(rep.Degraded, fmt.Sprintf("segment %s has a foreign header", name))
			continue
		}
		res := parseFile(data[len(segMagic):], int64(len(segMagic)))
		switch {
		case res.corrupt:
			// salvage the clean prefix into a fresh segment, then set the
			// corrupt original aside for forensics; a crashed earlier
			// recovery may have left a salvage file with the same first
			// LSN, so pick a name no live segment already owns rather than
			// truncating it (and double-registering the name)
			if len(res.frames) > 0 {
				sname := salvageName(res.frames[0].lsn)
				for k := 1; taken[sname]; k++ {
					sname = fmt.Sprintf("rseg-%016x-%d.seg", res.frames[0].lsn, k)
				}
				taken[sname] = true
				if err := s.writeSegmentFile(sname, res.frames); err != nil {
					return nil, nil, fmt.Errorf("segstore: salvaging %s: %w", name, err)
				}
				rep.SalvagedFrames += len(res.frames)
			}
			s.quarantine(name, rep)
			rep.QuarantinedBytes += int64(len(data)) - res.corruptAt
			rep.Degraded = joinReason(rep.Degraded,
				fmt.Sprintf("segment %s corrupt at byte %d (%s): frames beyond it are lost", name, res.corruptAt, res.corruptMsg))
		case res.torn:
			rep.TornSegments++
			rep.TornBytes += int64(len(data)) - res.goodSize
			if err := s.fs.Truncate(path, res.goodSize); err != nil {
				return nil, nil, fmt.Errorf("segstore: truncating torn tail of %s: %w", name, err)
			}
		}
		if res.corrupt {
			// the salvage segment (if any) was registered by writeSegmentFile
			keep(res.frames)
			noteSeqs(res.frames)
			for _, rec := range res.frames {
				if !seen[rec.lsn] {
					seen[rec.lsn] = true
					liveFrames++
				}
			}
			continue
		}
		if len(res.frames) == 0 {
			// magic-only file: a crash right after the header write
			if err := s.fs.Remove(path); err == nil {
				rep.EmptySegments++
			}
			continue
		}
		si := &segInfo{name: name}
		for _, rec := range res.frames {
			si.note(rec, int64(frameHeaderLen+8+len(rec.xml)))
		}
		// a segment fully covered by the live snapshot is a leftover of a
		// snapshot that crashed between rename and cleanup
		if s.snap != nil && si.lastLSN <= s.snap.upToLSN {
			if err := s.fs.Remove(path); err == nil {
				rep.ObsoleteSegments++
				continue
			}
		}
		keep(res.frames)
		noteSeqs(res.frames)
		for _, rec := range res.frames {
			if !seen[rec.lsn] {
				seen[rec.lsn] = true
				liveFrames++
			}
		}
		s.segs = append(s.segs, si)
		if si.lastLSN >= s.nextLSN {
			s.nextLSN = si.lastLSN + 1
		}
	}
	if s.snap != nil && s.snap.upToLSN >= s.nextLSN {
		s.nextLSN = s.snap.upToLSN + 1
	}

	// committed seq coverage and its contiguity
	if len(allSeqs) > 0 {
		seqs := make([]uint64, 0, len(allSeqs))
		for q := range allSeqs {
			seqs = append(seqs, q)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		s.minSeq, s.maxSeq = seqs[0], seqs[len(seqs)-1]
		s.contiguous = s.maxSeq-s.minSeq+1 == uint64(len(seqs))
	}

	if deltas {
		if n := missingPredecessors(replay); n > 0 {
			rep.MissingPredecessors = n
			rep.Degraded = joinReason(rep.Degraded,
				fmt.Sprintf("%d delta frames lack the version they extend: those versions are lost", n))
		}
	}

	rep.Segments = len(s.segs)
	rep.Frames = liveFrames
	if s.snap != nil {
		rep.SnapshotGen = s.snap.gen
		rep.SnapshotFrames = s.snap.count
	}
	rep.MinSeq, rep.MaxSeq = s.minSeq, s.maxSeq
	rep.Duration = time.Since(start)
	s.stats.Recovery = *rep
	return s, rep, nil
}

// hasDelta reports whether any of frames is a delta frame.
func hasDelta(frames []frameRec) bool {
	for _, rec := range frames {
		if rec.frag != nil && rec.frag.IsDelta() {
			return true
		}
	}
	return false
}

// missingPredecessors is how many delta frames of the files' frames —
// deduplicated by LSN and read in LSN order, as a replay reads them — lack
// their predecessor.
func missingPredecessors(files [][]frameRec) int {
	var all []frameRec
	seen := make(map[uint64]bool)
	for _, frames := range files {
		for _, rec := range frames {
			if rec.lsn > 0 && !seen[rec.lsn] {
				seen[rec.lsn] = true
				all = append(all, rec)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	return linkDeltas(all)
}

func joinReason(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

func isSegName(name string) bool {
	return strings.HasSuffix(name, ".seg") &&
		(strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "cseg-") || strings.HasPrefix(name, "rseg-"))
}

func segName(firstLSN uint64) string { return fmt.Sprintf("seg-%016x.seg", firstLSN) }
func salvageName(lsn uint64) string  { return fmt.Sprintf("rseg-%016x.seg", lsn) }
func snapName(gen uint64) string     { return fmt.Sprintf("snap-%016x.snap", gen) }

// csegGen extracts the generation from a compaction output name
// (cseg-<firstLSN>-g<gen>-<k>.seg), 0 for anything else.
func csegGen(name string) uint64 {
	if !strings.HasPrefix(name, "cseg-") || !strings.HasSuffix(name, ".seg") {
		return 0
	}
	parts := strings.Split(strings.TrimSuffix(name, ".seg"), "-")
	if len(parts) != 4 || len(parts[2]) < 2 || parts[2][0] != 'g' {
		return 0
	}
	g, err := strconv.ParseUint(parts[2][1:], 10, 64)
	if err != nil {
		return 0
	}
	return g
}

// quarantine renames a broken file to <name>.quarantine (never deleting
// evidence) and records it.
func (s *Store) quarantine(name string, rep *RecoveryReport) {
	from := filepath.Join(s.dir, name)
	to := from + ".quarantine"
	if err := s.fs.Rename(from, to); err != nil {
		// keep going: the file will be re-examined at the next open
		return
	}
	rep.QuarantinedFiles = append(rep.QuarantinedFiles, name+".quarantine")
}

// loadSnapshot validates one snapshot file and returns its metadata and
// frames. Any anomaly at all invalidates it — snapshots are written
// atomically, so a damaged one was corrupted at rest.
func (s *Store) loadSnapshot(name string) (*snapInfo, []frameRec, error) {
	data, err := readAll(s.fs, filepath.Join(s.dir, name))
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, nil, errors.New("bad magic")
	}
	res := parseFile(data[len(snapMagic):], int64(len(snapMagic)))
	if res.corrupt {
		return nil, nil, fmt.Errorf("corrupt at byte %d: %s", res.corruptAt, res.corruptMsg)
	}
	if res.torn {
		return nil, nil, errors.New("torn tail in an atomically written file")
	}
	if len(res.frames) == 0 || res.frames[0].lsn != 0 {
		return nil, nil, errors.New("missing meta frame")
	}
	doc, err := xmldom.ParseString(res.frames[0].xml)
	if err != nil {
		return nil, nil, errors.New("bad meta frame")
	}
	root := doc.Root()
	if root == nil || root.Name != "segstore:snapshot" {
		return nil, nil, errors.New("bad meta frame")
	}
	gen, _ := strconv.ParseUint(root.AttrOr("gen", ""), 10, 64)
	count, _ := strconv.Atoi(root.AttrOr("count", "-1"))
	upToLSN, _ := strconv.ParseUint(root.AttrOr("upToLSN", ""), 10, 64)
	if count < 0 || count != len(res.frames)-1 {
		return nil, nil, fmt.Errorf("frame count %d does not match meta count %d", len(res.frames)-1, count)
	}
	if want := snapName(gen); want != name {
		return nil, nil, fmt.Errorf("meta generation %d does not match file name", gen)
	}
	return &snapInfo{name: name, gen: gen, count: count, upToLSN: upToLSN}, res.frames[1:], nil
}

// writeSegmentFile writes frames into a fresh sealed segment (tmp +
// rename + dir sync) and registers it. Used by salvage and compaction.
func (s *Store) writeSegmentFile(name string, frames []frameRec) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	si := &segInfo{name: name}
	for _, rec := range frames {
		buf := s.encode(rec.lsn, rec.xml)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
		si.note(rec, int64(len(buf)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.stats.Fsyncs++
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.stats.Fsyncs++
	s.segs = append(s.segs, si)
	if si.lastLSN >= s.nextLSN {
		s.nextLSN = si.lastLSN + 1
	}
	return nil
}

// encode encodes one frame into the store's frame buffer and returns it,
// valid until the next encode. The caller holds s.mu, or is Open.
func (s *Store) encode(lsn uint64, xml string) []byte {
	buf := appendFrame(s.frame[:0], lsn, xml)
	if cap(buf) <= maxKeptFrame {
		s.frame = buf
	} else {
		s.frame = nil
	}
	return buf
}

// Append writes one fragment to the log. With syncing on (the default)
// a nil return means the fragment is on stable storage. On error the
// active segment is sealed at its last committed byte and the next
// append starts a fresh one, so one bad write cannot poison the log.
func (s *Store) Append(f *fragment.Fragment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("segstore: store is closed")
	}
	asp := s.tracer.Start(f.Trace, "segstore.append").Annotate("", f.TSID, f.Seq)
	defer asp.End()
	if err := s.ensureActiveLocked(); err != nil {
		s.stats.AppendErrors++
		return err
	}
	// the bytes the publishing server sealed onto f, when it came
	// through one; encoded here otherwise
	xml := f.String()
	lsn := s.nextLSN
	buf := s.encode(lsn, xml)
	if _, err := s.active.Write(buf); err != nil {
		s.stats.AppendErrors++
		s.repairActiveLocked()
		return fmt.Errorf("segstore: append: %w", err)
	}
	if !s.opts.NoSync {
		fsp := s.tracer.Start(asp.Context(), "segstore.fsync")
		if err := s.active.Sync(); err != nil {
			fsp.End()
			s.stats.AppendErrors++
			s.repairActiveLocked()
			return fmt.Errorf("segstore: fsync: %w", err)
		}
		fsp.End()
		s.stats.Fsyncs++
	}
	if asp != nil {
		asp.SetDetail(fmt.Sprintf("lsn=%d bytes=%d", lsn, len(buf)))
	}
	s.nextLSN++
	s.activeSeg.note(frameRec{lsn: lsn, frag: f, xml: xml}, int64(len(buf)))
	s.noteSeqLocked(f.Seq)
	s.stats.Appends++
	s.sinceSnapshot++
	if s.activeSeg.bytes >= s.opts.MaxSegmentBytes {
		s.sealActiveLocked()
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnapshot >= s.opts.SnapshotEvery {
		// best-effort: an auto-snapshot failure must not fail the append
		// that triggered it (the frame is already durable)
		_, _ = s.snapshotLocked()
	}
	return nil
}

func (s *Store) noteSeqLocked(seq uint64) {
	if seq == 0 {
		return
	}
	switch {
	case s.maxSeq == 0:
		s.minSeq, s.maxSeq = seq, seq
	case seq == s.maxSeq+1:
		s.maxSeq = seq
	case seq >= s.minSeq && seq <= s.maxSeq:
		// inside the covered range: nothing new to claim
	default:
		// a hole appeared (an append was lost or skipped): the coverage
		// claim turns non-contiguous and bootstrap stops trusting it
		if seq > s.maxSeq {
			s.maxSeq = seq
		}
		if seq < s.minSeq {
			s.minSeq = seq
		}
		s.contiguous = false
	}
}

// ensureActiveLocked rolls a fresh segment when none is open.
func (s *Store) ensureActiveLocked() error {
	if s.active != nil {
		return nil
	}
	name := segName(s.nextLSN)
	path := filepath.Join(s.dir, name)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("segstore: segment header: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("segstore: segment create sync: %w", err)
	}
	s.stats.Fsyncs++
	s.active = f
	s.activeName = name
	s.activeSeg = &segInfo{name: name, bytes: int64(len(segMagic))}
	return nil
}

// sealActiveLocked closes the active segment and moves it to the sealed
// list.
func (s *Store) sealActiveLocked() {
	if s.active == nil {
		return
	}
	if !s.opts.NoSync {
		_ = s.active.Sync()
	}
	_ = s.active.Close()
	if s.activeSeg.frames > 0 {
		s.segs = append(s.segs, s.activeSeg)
	} else {
		// nothing committed: drop the empty file
		_ = s.fs.Remove(filepath.Join(s.dir, s.activeName))
	}
	s.active, s.activeSeg, s.activeName = nil, nil, ""
}

// repairActiveLocked handles a failed write: truncate the torn bytes
// (best-effort — recovery would repair them anyway) and retire the
// segment so the next append starts clean.
func (s *Store) repairActiveLocked() {
	if s.active == nil {
		return
	}
	_ = s.active.Close()
	_ = s.fs.Truncate(filepath.Join(s.dir, s.activeName), s.activeSeg.bytes)
	if s.activeSeg.frames > 0 {
		s.segs = append(s.segs, s.activeSeg)
	}
	s.active, s.activeSeg, s.activeName = nil, nil, ""
}

// collectLocked reads every live frame (snapshot + segments), dedups by
// LSN and returns them in LSN (= append) order. Corrupt regions found
// at read time — at-rest corruption after a clean open — are skipped
// and counted rather than failing the read: quarantine-and-continue.
// Every skipped region also breaks the contiguity claim (see
// noteRuntimeCorruptionLocked): a read that dropped frames must not
// leave SeqCoverage promising a gap-free bootstrap.
func (s *Store) collectLocked() ([]frameRec, error) {
	var out []frameRec
	seen := make(map[uint64]bool)
	add := func(frames []frameRec) {
		for _, rec := range frames {
			if rec.lsn == 0 || seen[rec.lsn] {
				continue
			}
			seen[rec.lsn] = true
			out = append(out, rec)
		}
	}
	if s.snap != nil {
		_, frames, err := s.loadSnapshot(s.snap.name)
		if err != nil {
			return nil, fmt.Errorf("segstore: live snapshot unreadable: %w", err)
		}
		add(frames)
	}
	names := make([]string, 0, len(s.segs)+1)
	for _, si := range s.segs {
		names = append(names, si.name)
	}
	if s.activeSeg != nil && s.activeSeg.frames > 0 {
		names = append(names, s.activeName)
	}
	for _, name := range names {
		data, err := readAll(s.fs, filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("segstore: reading %s: %w", name, err)
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			s.noteRuntimeCorruptionLocked()
			continue
		}
		res := parseFile(data[len(segMagic):], int64(len(segMagic)))
		if res.corrupt {
			s.noteRuntimeCorruptionLocked()
		}
		add(res.frames)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	linkDeltas(out)
	return out, nil
}

// noteRuntimeCorruptionLocked records a corrupt region skipped during a
// runtime read. Counting is not enough: frames the open-time scan
// registered are now unreadable, so the contiguity claim behind
// SeqCoverage — and through it every advertised resume floor — must
// retreat, sticky, exactly like the write-failure policy.
func (s *Store) noteRuntimeCorruptionLocked() {
	s.stats.QuarantinedFrames++
	s.contiguous = false
}

// All returns every committed fragment in append order (sequenced or
// not).
func (s *Store) All() ([]*fragment.Fragment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := s.collectLocked()
	if err != nil {
		return nil, err
	}
	out := make([]*fragment.Fragment, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec.frag)
	}
	return out, nil
}

// ReadSince returns the committed sequenced fragments with Seq >
// afterSeq, in append order — the stream server's bootstrap read.
func (s *Store) ReadSince(afterSeq uint64) ([]*fragment.Fragment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := s.collectLocked()
	if err != nil {
		return nil, err
	}
	var out []*fragment.Fragment
	for _, rec := range recs {
		if rec.frag.Seq > afterSeq {
			out = append(out, rec.frag)
		}
	}
	return out, nil
}

// ReadTSID returns the committed fragments carrying one tsid in append
// order, opening only the segment files whose metadata says they hold
// that tsid — the (tsid, validity window) partition pay-off. The
// snapshot is always read (it is one file holding everything).
func (s *Store) ReadTSID(tsid int) ([]*fragment.Fragment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []frameRec
	seen := make(map[uint64]bool)
	add := func(frames []frameRec) {
		for _, rec := range frames {
			if rec.lsn == 0 || seen[rec.lsn] || rec.frag == nil || rec.frag.TSID != tsid {
				continue
			}
			seen[rec.lsn] = true
			out = append(out, rec)
		}
	}
	if s.snap != nil {
		_, frames, err := s.loadSnapshot(s.snap.name)
		if err != nil {
			return nil, fmt.Errorf("segstore: live snapshot unreadable: %w", err)
		}
		add(frames)
	}
	segs := append([]*segInfo(nil), s.segs...)
	if s.activeSeg != nil && s.activeSeg.frames > 0 {
		segs = append(segs, s.activeSeg)
	}
	for _, si := range segs {
		if _, ok := si.tsids[tsid]; !ok {
			s.stats.SegmentsSkipped++
			continue
		}
		data, err := readAll(s.fs, filepath.Join(s.dir, si.name))
		if err != nil {
			return nil, fmt.Errorf("segstore: reading %s: %w", si.name, err)
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			s.noteRuntimeCorruptionLocked()
			continue
		}
		res := parseFile(data[len(segMagic):], int64(len(segMagic)))
		if res.corrupt {
			s.noteRuntimeCorruptionLocked()
		}
		add(res.frames)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	linkDeltas(out)
	frags := make([]*fragment.Fragment, 0, len(out))
	for _, rec := range out {
		frags = append(frags, rec.frag)
	}
	return frags, nil
}

// SeqCoverage reports the committed sequenced coverage [min, max] and
// whether it is known to be gap-free. Bootstrap decisions must require
// contiguous — a log with holes cannot promise a lossless resume.
func (s *Store) SeqCoverage() (min, max uint64, contiguous bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.minSeq, s.maxSeq, s.contiguous
}

// SeqBounds reports the committed sequenced coverage bounds.
func (s *Store) SeqBounds() (min, max uint64) {
	min, max, _ = s.SeqCoverage()
	return min, max
}

// Snapshot seals the active segment, writes every committed frame into
// one generation-stamped snapshot file (tmp + atomic rename + dir
// sync), then removes the covered segments and the previous snapshot.
// A crash anywhere in the sequence is safe: before the rename the tmp
// is ignored at the next open; after it, leftover segments and the old
// snapshot are deduplicated by LSN and cleaned up.
func (s *Store) Snapshot() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("segstore: store is closed")
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() (uint64, error) {
	s.sealActiveLocked()
	frames, err := s.collectLocked()
	if err != nil {
		return 0, err
	}
	var gen uint64 = 1
	if s.snap != nil {
		gen = s.snap.gen + 1
	}
	upToLSN := s.nextLSN - 1
	meta := xmldom.NewElement("segstore:snapshot")
	meta.SetAttr("gen", strconv.FormatUint(gen, 10))
	meta.SetAttr("count", strconv.Itoa(len(frames)))
	meta.SetAttr("upToLSN", strconv.FormatUint(upToLSN, 10))

	name := snapName(gen)
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	write := func(buf []byte) error {
		if err != nil {
			return err
		}
		_, err = f.Write(buf)
		return err
	}
	_ = write([]byte(snapMagic))
	_ = write(s.encode(0, meta.String()))
	for _, rec := range frames {
		_ = write(s.encode(rec.lsn, rec.xml))
	}
	if err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return 0, fmt.Errorf("segstore: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return 0, fmt.Errorf("segstore: snapshot fsync: %w", err)
	}
	s.stats.Fsyncs++
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return 0, err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		_ = s.fs.Remove(tmp)
		return 0, fmt.Errorf("segstore: snapshot rename: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return 0, fmt.Errorf("segstore: snapshot dir sync: %w", err)
	}
	s.stats.Fsyncs++

	// the snapshot is durable: everything it covers can go
	oldSnap := s.snap
	s.snap = &snapInfo{name: name, gen: gen, count: len(frames), upToLSN: upToLSN}
	var kept []*segInfo
	for _, si := range s.segs {
		if si.lastLSN <= upToLSN {
			_ = s.fs.Remove(filepath.Join(s.dir, si.name))
			continue
		}
		kept = append(kept, si)
	}
	s.segs = kept
	if oldSnap != nil {
		_ = s.fs.Remove(filepath.Join(s.dir, oldSnap.name))
	}
	_ = s.fs.SyncDir(s.dir)
	s.stats.Snapshots++
	s.sinceSnapshot = 0
	return gen, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segs)
	st.Frames = 0
	st.SegmentBytes = 0
	for _, si := range s.segs {
		st.Frames += si.frames
		st.SegmentBytes += si.bytes
	}
	if s.activeSeg != nil {
		st.Segments++
		st.Frames += s.activeSeg.frames
		st.SegmentBytes += s.activeSeg.bytes
	}
	if s.snap != nil {
		st.SnapshotGen = s.snap.gen
		st.SnapshotFrames = s.snap.count
		st.Frames += s.snap.count
	}
	return st
}

// Close seals the active segment and stops further appends.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.sealActiveLocked()
	s.closed = true
	return nil
}
