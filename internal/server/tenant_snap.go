package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"realconfig/internal/snap"
)

// snapKeep is how many snapshot files are retained beside the journal.
// Two is the floor: the newest may be torn by a crash mid-copy or disk
// fault, and recovery then falls back to the previous good one.
const snapKeep = 2

// seqHeader carries sequence numbers between writes and reads:
// successful writes answer with the landed sequence number in it, and a
// read that presents it (or ?min-seq=) is served only once the serving
// snapshot has caught up past that point — read-your-writes across a
// leader/replica split.
const seqHeader = "X-Realconfig-Seq"

// errNoLeaderSnapshot means the leader has never captured a snapshot;
// a bootstrapping follower falls back to full-stream replay.
var errNoLeaderSnapshot = errors.New("server: leader has no snapshot to bootstrap from")

// snapshotResult answers POST /v1/snapshot.
type snapshotResult struct {
	Seq              uint64 `json:"seq"`
	Path             string `json:"path"`
	Bytes            int64  `json:"bytes"`
	Epoch            uint64 `json:"epoch,omitempty"`
	CompactedThrough uint64 `json:"compactedThrough"`
	SegmentsRemoved  int    `json:"segmentsRemoved"`
}

// takeSnapshot captures the tenant's current state into a durable
// snapshot file beside the journal, prunes old snapshots, and compacts
// sealed journal segments the snapshot makes redundant. Runs on the
// apply goroutine (it reads engine state and the sequence counter).
func (t *Tenant) takeSnapshot() (snapshotResult, error) {
	if t.journal == nil {
		return snapshotResult{}, errors.New("snapshots require a journal (start the daemon with -journal)")
	}
	// Leaders mint (and persist) an epoch on first use so the snapshot
	// pins its lineage; a follower must never mint — it adopts the
	// leader's epoch via the stream hello, and stamping a self-minted one
	// here would fence it off its own leader.
	var epoch uint64
	if t.Follower() == nil || t.promoted.Load() {
		e, err := t.journal.Epoch()
		if err != nil {
			return snapshotResult{}, err
		}
		epoch = e
	} else if e, ok := t.journal.knownEpoch(); ok {
		epoch = e
	}
	var lastReport json.RawMessage
	if rep := t.snap.Load().LastReport; rep != nil {
		b, err := json.Marshal(rep)
		if err != nil {
			return snapshotResult{}, err
		}
		lastReport = b
	}
	m := snap.Capture(t.verifier.Network(), t.registeredLines(), t.seq, epoch, lastReport)
	path, size, err := snap.WriteFile(t.journal.path, m)
	if err != nil {
		return snapshotResult{}, err
	}
	if _, err := snap.Prune(t.journal.path, snapKeep); err != nil {
		return snapshotResult{}, err
	}
	removed, err := t.journal.compactThrough(t.seq, t.journalRetain)
	if err != nil {
		return snapshotResult{}, fmt.Errorf("snapshot written but compaction failed: %w", err)
	}
	t.lastSnapSeq = t.seq
	t.snapMark = t.journal.appendedBytes()
	t.lastSnap.Store(t.seq)
	t.m.snapLastSeq.Set(int64(t.seq))
	t.m.snapBytes.Set(size)
	res := snapshotResult{
		Seq: t.seq, Path: path, Bytes: size, Epoch: epoch,
		CompactedThrough: t.journal.compactedThrough(), SegmentsRemoved: removed,
	}
	t.log.Info("snapshot captured",
		"seq", res.Seq, "bytes", res.Bytes,
		"compacted_through", res.CompactedThrough, "segments_removed", res.SegmentsRemoved)
	return res, nil
}

// maybeSnapshot fires the automatic capture triggers after a write:
// every snapEvery entries, or every snapBytesEvery journal bytes,
// whichever comes first. A failed automatic snapshot is logged, never
// surfaced — the write that triggered it already succeeded. Runs on the
// apply goroutine.
func (t *Tenant) maybeSnapshot() {
	if t.journal == nil || (t.snapEvery <= 0 && t.snapBytesEvery <= 0) {
		return
	}
	trigger := t.snapEvery > 0 && t.seq-t.lastSnapSeq >= uint64(t.snapEvery)
	if !trigger && t.snapBytesEvery > 0 && t.journal.appendedBytes()-t.snapMark >= t.snapBytesEvery {
		trigger = true
	}
	if !trigger {
		return
	}
	if _, err := t.takeSnapshot(); err != nil {
		t.log.Warn("automatic snapshot failed", "err", err)
	}
}

// bootstrapFromLeader rebuilds this follower's state from the leader's
// latest snapshot: fetch, verify the checksum, then (on the apply
// goroutine) persist it locally, restore the engine, adopt the epoch,
// and restart the local journal chain at the snapshot's seq. The
// replication stream then resumes from there. Called at follower
// startup when there is no local state, and by the Follower's
// Rebootstrap hook when the leader answers 410 Gone.
func (t *Tenant) bootstrapFromLeader(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.bootstrapURL, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%w (leader answered %d)", errNoLeaderSnapshot, resp.StatusCode)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("server: fetching leader snapshot: %d: %s", resp.StatusCode, string(body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	man, err := snap.Decode(data) // checksum catches in-flight truncation too
	if err != nil {
		return err
	}
	_, err = t.do(ctx, func() (any, error) {
		if man.Seq <= t.seq {
			return nil, nil // already at or past the snapshot; resume by stream
		}
		net, err := man.Network()
		if err != nil {
			return nil, err
		}
		// Persist the snapshot locally before touching live state: a crash
		// anywhere past this point recovers at next open by restoring this
		// file (and resetting a journal the crash left behind it).
		if t.journal != nil {
			if _, _, err := snap.WriteFile(t.journal.path, man); err != nil {
				return nil, err
			}
			if _, err := snap.Prune(t.journal.path, snapKeep); err != nil {
				return nil, err
			}
		}
		rep, err := t.restore(net, man.PolicyText(), man, int64(len(data)))
		if err != nil {
			return nil, err
		}
		if t.journal != nil {
			if man.Epoch != 0 {
				if err := t.journal.setEpoch(man.Epoch); err != nil {
					return nil, err
				}
			}
			if err := t.journal.resetTo(man.Seq); err != nil {
				return nil, err
			}
			t.snapMark = t.journal.appendedBytes()
		}
		t.publish(rep)
		t.log.Info("bootstrapped from leader snapshot",
			"seq", man.Seq, "bytes", len(data), "epoch", man.Epoch)
		return nil, nil
	}, waitForRoom)
	return err
}

// promote flips a caught-up follower into a leader: the replication
// loop is stopped, a fresh epoch is minted and persisted, and writes
// are accepted from here on. The new epoch fences the old lineage both
// ways — this tenant will never resume the old leader's stream (epoch
// mismatch at hello), and replicas built from this tenant reject the
// old leader. Returns the new epoch (0 if the tenant has no journal).
func (t *Tenant) promote() (uint64, error) {
	t.promoteMu.Lock()
	defer t.promoteMu.Unlock()
	if t.promoted.Load() {
		return 0, errors.New("already promoted")
	}
	f := t.Follower()
	if f == nil {
		return 0, errors.New("not a follower")
	}
	if !f.Connected() {
		return 0, errors.New("replication stream not connected; refusing to promote a stale replica")
	}
	if lag := f.LagSeq(); lag != 0 {
		return 0, fmt.Errorf("replica is %d entries behind the leader; refusing to promote", lag)
	}
	if t.followCancel != nil {
		t.followCancel()
		<-t.followDone
	}
	var epoch uint64
	if t.journal != nil {
		e, err := mintEpoch()
		if err != nil {
			return 0, err
		}
		if err := t.journal.setEpoch(e); err != nil {
			return 0, err
		}
		epoch = e
	}
	t.promoted.Store(true)
	t.ready.Store(true)
	t.log.Info("promoted to leader", "seq", t.Snapshot().Seq, "epoch", epoch)
	return epoch, nil
}

// ---- HTTP surface ----

// handleSnapshot (POST /v1/snapshot) captures a snapshot of the
// tenant's current state and compacts the journal behind it. Allowed on
// replicas too: a follower checkpointing locally speeds up its own
// restarts and lets it seed further replicas.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t := s.tenantFrom(r)
	if t.journal == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: "snapshots require a journal (start the daemon with -journal)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	res, err := t.do(ctx, func() (any, error) { return t.takeSnapshot() })
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSnapshotLatest (GET /v1/snapshot/latest) serves the newest
// verified snapshot file as-is — the follower bootstrap download. The
// bytes on disk already carry their own checksum trailer, so the client
// re-verifies end to end.
func (s *Server) handleSnapshotLatest(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFrom(r)
	if t.journal == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "no journal, so no snapshots",
			ReqID: reqIDFrom(r),
		})
		return
	}
	data, man, _, err := snap.Latest(t.journal.path)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), ReqID: reqIDFrom(r)})
		return
	}
	if man == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "no snapshot captured yet (POST /v1/snapshot)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(seqHeader, strconv.FormatUint(man.Seq, 10))
	w.Write(data)
}

// handlePromote (POST /v1/promote) flips a caught-up replica into a
// leader under a freshly minted epoch. Refused (409) on a daemon that
// is not a replica, on an already-promoted tenant, and on a replica
// that is disconnected or lagging — promotion must never lose
// acknowledged writes silently.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.follow == "" {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: "not a replica (this daemon is already a leader)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	t := s.tenantFrom(r)
	epoch, err := t.promote()
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error(), ReqID: reqIDFrom(r)})
		return
	}
	seq := t.Snapshot().Seq
	w.Header().Set(seqHeader, strconv.FormatUint(seq, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": true,
		"role":     "leader",
		"seq":      seq,
		"epoch":    epoch,
	})
}

// minSeqFrom extracts a read's sequence floor from ?min-seq= or the
// X-Realconfig-Seq request header (query wins). ok reports whether a
// floor was given.
func minSeqFrom(r *http.Request) (uint64, bool, error) {
	tok := r.URL.Query().Get("min-seq")
	if tok == "" {
		tok = r.Header.Get(seqHeader)
	}
	if tok == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseUint(tok, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad min-seq %q", tok)
	}
	return n, true, nil
}

// gateMinSeq enforces read-your-writes on a snapshot read: if the
// request names a sequence floor the serving snapshot has not reached,
// it is answered 503 + Retry-After so the client (or its load
// balancer) retries once replication catches up. Returns the snapshot
// to serve, or ok=false if the request was already answered. Every
// gated response — served or deferred — carries the serving sequence
// number in X-Realconfig-Seq.
func (s *Server) gateMinSeq(w http.ResponseWriter, r *http.Request) (*Snapshot, bool) {
	t := s.tenantFrom(r)
	min, has, err := minSeqFrom(r)
	if err != nil {
		badRequest(w, r, err.Error())
		return nil, false
	}
	snapshot := t.Snapshot()
	w.Header().Set(seqHeader, strconv.FormatUint(snapshot.Seq, 10))
	if has && snapshot.Seq < min {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("serving seq %d, read requires %d (replica catching up)", snapshot.Seq, min),
			ReqID: reqIDFrom(r),
		})
		return nil, false
	}
	return snapshot, true
}

// snapshotHealth adds the snapshot subsystem's state to a healthz or
// readyz body (journal-backed tenants only).
func (t *Tenant) snapshotHealth(out map[string]any) {
	if t.journal == nil {
		return
	}
	out["snapshotSeq"] = t.lastSnap.Load()
	out["compactedThroughSeq"] = t.journal.compactedThrough()
	if e, ok := t.journal.knownEpoch(); ok {
		out["epoch"] = e
	}
	if t.promoted.Load() {
		out["promoted"] = true
	}
}

// startupBootstrapTimeout bounds the best-effort snapshot fetch a
// fresh follower tries before falling back to full-stream replay.
const startupBootstrapTimeout = 10 * time.Second
