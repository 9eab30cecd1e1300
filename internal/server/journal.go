package server

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/repl"
	"realconfig/internal/snap"
)

// Journal operations.
const (
	opChanges      = "changes"
	opPolicyAdd    = "policy_add"
	opPolicyRemove = "policy_remove"
	opPlan         = "plan"
)

// Entry is one journaled write: a batch of configuration changes, a
// policy addition (by its source line), or a policy removal (by name).
// Entries are stored as JSON lines, appended strictly after the write
// succeeds against the live verifier, so replaying the journal over the
// same base snapshot reproduces the daemon's exact state.
//
// A "plan" entry is an audit record, not a state change: it remembers
// that the planner produced a safe ordering (the batch plus its wave
// grouping as batch indices) against the state at that sequence number.
// Replay treats it as a no-op.
type Entry struct {
	Op      string            `json:"op"`
	Changes []json.RawMessage `json:"changes,omitempty"`
	Line    string            `json:"line,omitempty"`
	Name    string            `json:"name,omitempty"`
	Waves   [][]int           `json:"waves,omitempty"`

	// A live write also carries what its maker already holds, so the
	// write door neither decodes nor encodes it twice. Entries read back
	// from a journal leave these unset.
	batch []netcfg.Change // Changes, decoded (the leader's change batches)
	raw   []byte          // the encoded line (a follower's: the leader's bytes)
	reqID string          // the request behind the write, for its apply trace
}

// journal is an append-only JSON-lines log of applied writes, and the
// tenant's single source of truth for replication: it implements
// repl.Log, so a follower can catch up from the sealed segment chain
// and then tail live appends, resumable by sequence number.
//
// The active file lives at path; when segBytes > 0 and an append pushes
// the active file past that size, the file is sealed by renaming it to
// path.NNNNNN (monotonically increasing, zero-padded) and a fresh
// active file is opened. Replay reads sealed segments in index order,
// then the active file, so rotation never changes the replayed
// sequence. segBytes == 0 disables rotation (one unbounded file, the
// historical behavior).
//
// Concurrency: the owning tenant's apply goroutine is the only writer;
// replication streams subscribe and read the active file under mu.
// Sealed segments are immutable once renamed, so catch-up reads them
// without the lock.
type journal struct {
	path     string
	segBytes int64

	mu      sync.Mutex
	size    int64  // bytes in the active file
	nextSeg int    // index the next sealed segment will take
	lastSeq uint64 // sequence number of the newest durable entry
	epoch   uint64 // journal-lineage id (0 until minted or adopted)
	closed  bool

	// base is the compacted-through sequence number: entries 1..base were
	// folded into a durable snapshot and their segments deleted, so the
	// chain on disk holds exactly entries base+1..lastSeq. It is persisted
	// in the .compact sidecar, with the lowest segment index still part of
	// the chain (compactMeta.FirstSeg), before any segment is removed, so
	// a crash mid-compaction is resumed (stale segments re-deleted) at
	// open.
	base uint64

	// appended counts bytes durably appended since open (the snapshot
	// subsystem's size trigger reads it).
	appended int64

	f *os.File
	w *bufio.Writer

	// subs are live replication subscribers, keyed for removal. A
	// subscriber that falls behind its buffer is closed and dropped;
	// the follower reconnects and resumes from storage.
	subs    map[int]chan repl.Record
	nextSub int

	// tornBytes records how many trailing bytes of the active file were
	// truncated at open because a crash tore the final record.
	tornBytes int64

	// Instruments (nil-safe; wired by the server when metrics are on).
	appends       *obs.Counter
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
	rotations     *obs.Counter
	compactions   *obs.Counter
}

// subBuffer bounds each replication subscriber's live-tail channel.
const subBuffer = 1024

// segmentIndex parses name as a sealed segment of the journal whose
// active file is base ("base.NNNNNN").
func segmentIndex(base, name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, base+".")
	if !ok || len(rest) != 6 {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// journalSegments lists the sealed segment paths for path, sorted by
// index, along with the next free index.
func journalSegments(path string) ([]string, int, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type seg struct {
		idx  int
		path string
	}
	var segs []seg
	next := 0
	for _, de := range des {
		if idx, ok := segmentIndex(base, de.Name()); ok {
			segs = append(segs, seg{idx, filepath.Join(dir, de.Name())})
			if idx+1 > next {
				next = idx + 1
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.path
	}
	return paths, next, nil
}

// readEntries decodes the JSON-lines entries of one journal file. good
// is the byte offset just past the last intact record; torn reports a
// partial trailing record — a final line that is unterminated or not
// valid JSON, the signature of a crash mid-append. Callers decide
// whether a torn tail is recoverable (the chain's final file: truncate
// to good) or corruption (a sealed mid-chain segment: fail).
func readEntries(r io.Reader, path string) (entries []Entry, good int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	lineno := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			lineno++
			terminated := line[len(line)-1] == '\n'
			body := bytes.TrimSuffix(line, []byte("\n"))
			if len(bytes.TrimSpace(body)) == 0 {
				good += int64(len(line))
			} else {
				var e Entry
				jerr := json.Unmarshal(body, &e)
				switch {
				case jerr == nil && terminated:
					entries = append(entries, e)
					good += int64(len(line))
				case rerr == io.EOF || (jerr != nil && peekEOF(br)):
					// Partial trailing record: unterminated, or the
					// final line failed to decode.
					return entries, good, true, nil
				default:
					return nil, 0, false, fmt.Errorf("journal %s line %d: %w", path, lineno, jerr)
				}
			}
		}
		if rerr == io.EOF {
			return entries, good, false, nil
		}
		if rerr != nil {
			return nil, 0, false, fmt.Errorf("journal %s: %w", path, rerr)
		}
	}
}

// peekEOF reports whether br has no bytes left (so the line just read
// was the file's last).
func peekEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}

// readRawLines returns the non-blank lines of one journal file without
// decoding them, newline stripped — the byte-preserving read path
// replication catch-up uses. max bounds how many lines are returned
// (<0 = all); reading stops early once reached, so a concurrent append
// past the caller's snapshot of lastSeq is never picked up.
func readRawLines(path string, max int) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if max >= 0 && len(out) >= max {
			return out, nil
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		out = append(out, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return out, nil
}

// openJournal reads any existing entries — sealed segments first, then
// the active file — and opens the active file for appending. An empty
// or absent journal yields no entries. With a .compact sidecar present,
// the returned entries are the tail after the compacted base: the
// caller restores a snapshot at seq ≥ base and replays only these.
//
// Crash recovery: a torn final record can only live at the tail of the
// active file (segments are sealed strictly after a durable append, and
// the rename is atomic), so a torn active-file tail is truncated away
// and recovery proceeds — the record was never acknowledged. A torn
// tail on a sealed segment that is not the end of the chain means real
// corruption (entries after it would be silently renumbered) and fails.
// A crash mid-compaction is resumed here: the sidecar is the commit
// point, so any sealed segment below its firstSeg is deletable debris.
func openJournal(path string, segBytes int64) (*journal, []Entry, error) {
	cm, haveCompact, err := readCompactFile(compactPath(path))
	if err != nil {
		return nil, nil, err
	}
	segPaths, nextSeg, err := journalSegments(path)
	if err != nil {
		return nil, nil, err
	}
	if haveCompact {
		// Resume an interrupted compaction: segments the sidecar already
		// committed away may still exist if the crash hit between the
		// sidecar write and the deletes.
		_, baseName := filepath.Split(path)
		kept := segPaths[:0]
		for _, sp := range segPaths {
			if idx, ok := segmentIndex(baseName, filepath.Base(sp)); ok && idx < cm.FirstSeg {
				if err := os.Remove(sp); err != nil {
					return nil, nil, fmt.Errorf("journal %s: resuming compaction: %w", path, err)
				}
				continue
			}
			kept = append(kept, sp)
		}
		segPaths = kept
		if nextSeg < cm.FirstSeg {
			nextSeg = cm.FirstSeg // keep indices monotonic past deleted history
		}
	}
	var entries []Entry
	for _, sp := range segPaths {
		sf, err := os.Open(sp)
		if err != nil {
			return nil, nil, err
		}
		es, _, torn, err := readEntries(sf, sp)
		sf.Close()
		if err != nil {
			return nil, nil, err
		}
		if torn {
			return nil, nil, fmt.Errorf("journal %s: sealed segment has a torn tail (mid-chain corruption; entries after it would be renumbered)", sp)
		}
		entries = append(entries, es...)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// The active file may have just been created: sync its directory
	// entry before the first append is acknowledged.
	if err := snap.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	es, good, torn, err := readEntries(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var tornBytes int64
	if torn {
		end, serr := f.Seek(0, io.SeekEnd)
		if serr != nil {
			f.Close()
			return nil, nil, serr
		}
		tornBytes = end - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal %s: truncating torn tail: %w", path, err)
		}
	}
	entries = append(entries, es...)
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &journal{
		path:      path,
		segBytes:  segBytes,
		size:      good,
		nextSeg:   nextSeg,
		base:      cm.CompactedThrough,
		lastSeq:   cm.CompactedThrough + uint64(len(entries)),
		tornBytes: tornBytes,
		f:         f,
		w:         bufio.NewWriter(f),
		subs:      make(map[int]chan repl.Record),
	}
	if e, err := readEpochFile(epochPath(path)); err != nil {
		f.Close()
		return nil, nil, err
	} else {
		j.epoch = e
	}
	return j, entries, nil
}

// append durably records one entry (write + flush + fsync), sealing the
// active file into a numbered segment afterwards if it crossed the
// rotation threshold. An entry that carries its encoded line is written
// as those bytes, so a follower's journal preserves the leader's.
func (j *journal) append(e Entry) error {
	b := e.raw
	if b == nil {
		var err error
		if b, err = json.Marshal(e); err != nil {
			return err
		}
	}
	return j.appendRaw(b)
}

// appendRaw durably records one encoded entry line (no newline). After
// the entry is durable, every replication subscriber is notified.
func (j *journal) appendRaw(b []byte) error {
	t0 := time.Now()
	defer func() { j.appendSeconds.ObserveDuration(time.Since(t0)) }()
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.w.Write(append(b, '\n'))
	if err != nil {
		return err
	}
	j.size += int64(n)
	j.appended += int64(n)
	if err := j.w.Flush(); err != nil {
		return err
	}
	ts := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.fsyncSeconds.ObserveDuration(time.Since(ts))
	j.appends.Inc()
	j.lastSeq++
	rec := repl.Record{Seq: j.lastSeq, Data: append([]byte(nil), b...)}
	for id, ch := range j.subs {
		select {
		case ch <- rec:
		default:
			// Subscriber fell behind its buffer: drop it. The stream
			// ends and the follower reconnects, resuming from storage.
			close(ch)
			delete(j.subs, id)
		}
	}
	if j.segBytes > 0 && j.size >= j.segBytes {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	return nil
}

// rotate seals the (already flushed and synced) active file under the
// next segment index and starts a fresh one. Caller holds mu.
func (j *journal) rotate() error {
	if err := j.f.Close(); err != nil {
		return err
	}
	sealed := fmt.Sprintf("%s.%06d", j.path, j.nextSeg)
	if err := os.Rename(j.path, sealed); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.nextSeg++
	j.f, j.w, j.size = f, bufio.NewWriter(f), 0
	j.rotations.Inc()
	// One directory sync makes both the sealed name and the fresh
	// active file durable.
	return snap.SyncDir(filepath.Dir(j.path))
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// ---- repl.Log ----

// LastSeq returns the sequence number of the newest durable entry.
func (j *journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Epoch returns the journal's lineage id, minting and persisting one on
// first use (leader side). A follower's journal instead adopts the
// leader's epoch via setEpoch before ever streaming.
func (j *journal) Epoch() (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.epoch != 0 {
		return j.epoch, nil
	}
	e, err := mintEpoch()
	if err != nil {
		return 0, err
	}
	if err := writeEpochFile(epochPath(j.path), e); err != nil {
		return 0, err
	}
	j.epoch = e
	return e, nil
}

// knownEpoch returns the persisted epoch without minting one.
func (j *journal) knownEpoch() (uint64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch, j.epoch != 0
}

// setEpoch adopts (and persists) the leader's epoch on a follower.
func (j *journal) setEpoch(e uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := writeEpochFile(epochPath(j.path), e); err != nil {
		return err
	}
	j.epoch = e
	return nil
}

// Stream implements repl.Log: the catch-up records after from, plus a
// live channel for subsequent appends.
//
// Catch-up reads sealed segments without the lock (they are immutable);
// the active file is read and the subscriber registered under mu, so
// the handoff between catch-up and tail is gapless: every entry is in
// exactly one of them (modulo the harmless duplicate guard downstream).
//
// The chain on disk starts at the compacted base: a resume point below
// it asks for entries that no longer exist, answered with a wrapped
// repl.ErrSeqGone so the follower re-bootstraps from a snapshot. A
// compaction racing the unlocked segment reads is detected by
// re-checking the base under mu and answered as a transient error (the
// follower simply reconnects).
func (j *journal) Stream(from uint64) ([]repl.Record, <-chan repl.Record, func(), error) {
	j.mu.Lock()
	base := j.base
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return nil, nil, nil, fmt.Errorf("journal %s: closed", j.path)
	}
	if from < base {
		return nil, nil, nil, fmt.Errorf("%w: journal %s holds entries after %d, resume point %d precedes it", repl.ErrSeqGone, j.path, base, from)
	}
	segPaths, _, err := journalSegments(j.path)
	if err != nil {
		return nil, nil, nil, err
	}
	var catchup []repl.Record
	seq := base
	addLines := func(lines [][]byte) {
		for _, line := range lines {
			seq++
			if seq > from {
				catchup = append(catchup, repl.Record{Seq: seq, Data: line})
			}
		}
	}
	for _, sp := range segPaths {
		lines, err := readRawLines(sp, -1)
		if err != nil {
			return nil, nil, nil, err
		}
		addLines(lines)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, nil, nil, fmt.Errorf("journal %s: closed", j.path)
	}
	if j.base != base {
		return nil, nil, nil, fmt.Errorf("journal %s: compacted concurrently with catch-up; retry", j.path)
	}
	// Segments sealed between the unlocked listing and here are
	// immutable too; pick up the stragglers before the active file.
	segPaths2, _, err := journalSegments(j.path)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(segPaths2) > len(segPaths) {
		for _, sp := range segPaths2[len(segPaths):] {
			lines, err := readRawLines(sp, -1)
			if err != nil {
				return nil, nil, nil, err
			}
			addLines(lines)
		}
	}
	if seq > j.lastSeq {
		return nil, nil, nil, fmt.Errorf("journal %s: segment chain has %d entries past lastSeq %d", j.path, seq-j.lastSeq, j.lastSeq)
	}
	lines, err := readRawLines(j.path, int(j.lastSeq-seq))
	if err != nil {
		return nil, nil, nil, err
	}
	addLines(lines)
	if seq != j.lastSeq {
		return nil, nil, nil, fmt.Errorf("journal %s: catch-up found %d entries, expected %d", j.path, seq, j.lastSeq)
	}

	ch := make(chan repl.Record, subBuffer)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
	return catchup, ch, cancel, nil
}

// ---- compaction ----

// compactPath is the sidecar file recording the journal's compacted
// base: the sequence number the chain starts after, and the lowest
// segment index still live. Written durably before any segment is
// deleted — it is the compaction's commit point.
func compactPath(journalPath string) string { return journalPath + ".compact" }

// compactMeta is the .compact sidecar's JSON body.
type compactMeta struct {
	CompactedThrough uint64 `json:"compactedThrough"`
	FirstSeg         int    `json:"firstSeg"`
}

// readCompactFile loads a persisted compaction sidecar (ok=false if the
// file does not exist).
func readCompactFile(path string) (compactMeta, bool, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return compactMeta{}, false, nil
	}
	if err != nil {
		return compactMeta{}, false, err
	}
	var m compactMeta
	if err := json.Unmarshal(b, &m); err != nil || m.FirstSeg < 0 {
		return compactMeta{}, false, fmt.Errorf("journal compact file %s: bad contents %q", path, bytes.TrimSpace(b))
	}
	return m, true, nil
}

// writeCompactFile persists the sidecar durably (snap.WriteAtomic).
func writeCompactFile(path string, m compactMeta) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return snap.WriteAtomic(path, append(b, '\n'))
}

// compactedThrough returns the journal's current base sequence number.
func (j *journal) compactedThrough() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// appendedBytes returns how many bytes were durably appended since the
// journal was opened (the snapshot size trigger's odometer).
func (j *journal) appendedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// compactThrough deletes the longest prefix of sealed segments whose
// entries all have sequence numbers ≤ seq (a snapshot at seq makes them
// redundant), always keeping the newest retain sealed segments as a
// floor so slightly-lagging followers can still resume without a
// re-bootstrap. The active file is never compacted. Returns how many
// segments were removed.
//
// Crash safety: the new base and first surviving segment index are
// committed to the .compact sidecar before any file is deleted, so a
// kill at any point leaves either the old chain intact or a chain whose
// stale prefix is re-deleted at the next open — never a gap.
func (j *journal) compactThrough(seq uint64, retain int) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal %s: closed", j.path)
	}
	if retain < 0 {
		retain = 0
	}
	segPaths, _, err := journalSegments(j.path)
	if err != nil {
		return 0, err
	}
	limit := len(segPaths) - retain
	if limit <= 0 {
		return 0, nil
	}
	cum := j.base
	cut := 0
	for i := 0; i < limit; i++ {
		lines, err := readRawLines(segPaths[i], -1)
		if err != nil {
			return 0, err
		}
		end := cum + uint64(len(lines))
		if end > seq {
			break
		}
		cum = end
		cut = i + 1
	}
	if cut == 0 {
		return 0, nil
	}
	firstSeg := j.nextSeg
	if cut < len(segPaths) {
		_, baseName := filepath.Split(j.path)
		if idx, ok := segmentIndex(baseName, filepath.Base(segPaths[cut])); ok {
			firstSeg = idx
		}
	}
	if err := writeCompactFile(compactPath(j.path), compactMeta{CompactedThrough: cum, FirstSeg: firstSeg}); err != nil {
		return 0, err
	}
	j.base = cum
	for i := 0; i < cut; i++ {
		if err := os.Remove(segPaths[i]); err != nil {
			// The sidecar already committed; the next open re-deletes.
			return i, err
		}
	}
	j.compactions.Inc()
	return cut, nil
}

// resetTo discards the journal's entire on-disk chain and restarts it
// empty at base seq — the follower re-bootstrap path, where local
// history diverged from reality (the leader compacted past our resume
// point) and a snapshot at seq replaces it. Live subscribers are
// dropped: their stream position no longer exists, and downstream
// replicas must re-resume (or re-bootstrap) themselves.
//
// Crash ordering: the active file is truncated first, then the sidecar
// commits the new base, then sealed segments are deleted. A crash
// before the sidecar write leaves the old (sealed-only) chain readable;
// a crash after it leaves stale segments the next open re-deletes.
func (j *journal) resetTo(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal %s: closed", j.path)
	}
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	segPaths, _, err := journalSegments(j.path)
	if err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.w = bufio.NewWriter(j.f)
	j.size = 0
	if err := writeCompactFile(compactPath(j.path), compactMeta{CompactedThrough: seq, FirstSeg: j.nextSeg}); err != nil {
		return err
	}
	j.base = seq
	j.lastSeq = seq
	for _, sp := range segPaths {
		if err := os.Remove(sp); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// ---- epoch persistence ----

// epochPath is the sidecar file holding the journal's lineage id.
func epochPath(journalPath string) string { return journalPath + ".epoch" }

// mintEpoch draws a random non-zero 63-bit lineage id.
func mintEpoch() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("minting journal epoch: %w", err)
		}
		e := binary.BigEndian.Uint64(b[:]) >> 1
		if e != 0 {
			return e, nil
		}
	}
}

// readEpochFile loads a persisted epoch (0 if the file does not exist).
func readEpochFile(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	e, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if perr != nil || e == 0 {
		return 0, fmt.Errorf("journal epoch file %s: bad contents %q", path, strings.TrimSpace(string(b)))
	}
	return e, nil
}

// writeEpochFile persists an epoch durably (snap.WriteAtomic).
func writeEpochFile(path string, e uint64) error {
	return snap.WriteAtomic(path, []byte(strconv.FormatUint(e, 10)+"\n"))
}

// changesEntry builds the journal entry of a decoded change batch that
// request reqID asks to apply.
func changesEntry(changes []netcfg.Change, reqID string) (Entry, error) {
	raws, err := netcfg.EncodeChanges(changes)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Op: opChanges, Changes: raws, batch: changes, reqID: reqID}, nil
}
