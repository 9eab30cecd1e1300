// Package snap is RealConfig's durable state-snapshot format: a
// versioned, checksummed, deterministic serialization of one tenant's
// engine state — the network configuration, the registered policy
// lines, and the journal position (sequence number plus epoch) the
// state corresponds to.
//
// A snapshot is the "base" half of checkpoint-plus-log recovery. The
// journal replay golden tests prove a tenant's observable state is a
// pure function of base snapshot + ordered journal entries; a snapshot
// at sequence S therefore makes every journal entry ≤ S redundant:
// restarts restore the snapshot and replay only the tail, followers
// bootstrap by fetching the snapshot over HTTP instead of the leader's
// whole history, and the journal owner may compact sealed segments
// entirely ≤ S away.
//
// File format (two JSON lines):
//
//	{"format":"realconfig-snapshot","version":1,"seq":S,...}
//	{"sha256":"<hex digest of the first line, newline included>"}
//
// The first line is the manifest; the second seals it. Determinism
// comes from sorted device order plus Go's fixed struct-field JSON
// encoding, so two snapshots of the same state are byte-identical —
// the property the shipping and parity tests lean on. A torn or bit-
// flipped file fails the checksum and is skipped in favor of an older
// good snapshot; writes go through tmp+fsync+rename+directory fsync
// (WriteAtomic) so a crash never leaves a half-written file under the
// final name or loses a completed write.
package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"realconfig/internal/netcfg"
)

// Version is the snapshot format version this package writes. Decode
// rejects other versions: the manifest is restored into live state, so
// guessing at unknown fields is never safe.
const Version = 1

// format is the manifest's self-identifying format tag.
const format = "realconfig-snapshot"

// ErrCorrupt wraps every way a snapshot file can fail verification:
// missing trailer, checksum mismatch, unknown format or version, or a
// manifest that is not valid JSON. Latest skips corrupt files (a torn
// write must fall back to the previous good snapshot, not take the
// daemon down); explicit Decode callers get the wrapped detail.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Device is one device's configuration in canonical text form
// (netcfg.Config.Format; Parse round-trips it).
type Device struct {
	Name   string `json:"name"`
	Config string `json:"config"`
}

// Manifest is a snapshot's decoded content: everything needed to
// rebuild a tenant's engine to the state it had at Seq.
type Manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Seq is the journal sequence number the state reflects: every entry
	// ≤ Seq is folded in, every entry > Seq is the replayable tail.
	Seq uint64 `json:"seq"`
	// Epoch is the journal lineage the snapshot belongs to (0 if the
	// journal never minted one). A follower restoring the snapshot
	// adopts it, so the epoch fence still holds after a bootstrap.
	Epoch uint64 `json:"epoch,omitempty"`
	// Backend is always "bdd" and is never read back: it stays in the
	// format so snapshots are byte-identical across versions. Older
	// versions could name a second model here, since removed.
	Backend string `json:"backend"`
	// Policies are the registered policy lines in registration order
	// (the journal-replay input form).
	Policies []string `json:"policies"`
	// Topology is the network topology in canonical text form.
	Topology string `json:"topology"`
	// Devices are the device configurations, sorted by name.
	Devices []Device `json:"devices"`
	// LastReport is the last verification report's wire JSON, carried
	// verbatim so a restored daemon's /v1/report is byte-identical to
	// the one the snapshot was taken from.
	LastReport json.RawMessage `json:"lastReport,omitempty"`
}

// Capture builds a manifest from live state. policies are the
// registered policy lines in registration order; lastReport is the
// current report's wire JSON (may be nil).
func Capture(net *netcfg.Network, policies []string, seq, epoch uint64, lastReport json.RawMessage) *Manifest {
	m := &Manifest{
		Format:     format,
		Version:    Version,
		Seq:        seq,
		Epoch:      epoch,
		Backend:    "bdd",
		Policies:   append([]string(nil), policies...),
		LastReport: lastReport,
	}
	if net != nil {
		if net.Topology != nil {
			m.Topology = net.Topology.Format()
		}
		names := net.DeviceNames()
		sort.Strings(names)
		for _, name := range names {
			m.Devices = append(m.Devices, Device{Name: name, Config: net.Devices[name].Format()})
		}
	}
	return m
}

// Network rebuilds the manifest's network from its canonical text forms.
func (m *Manifest) Network() (*netcfg.Network, error) {
	net := netcfg.NewNetwork()
	for _, d := range m.Devices {
		cfg, err := netcfg.Parse(d.Config)
		if err != nil {
			return nil, fmt.Errorf("snap: device %s: %w", d.Name, err)
		}
		if cfg.Hostname == "" {
			cfg.Hostname = d.Name
		}
		if _, dup := net.Devices[d.Name]; dup {
			return nil, fmt.Errorf("snap: duplicate device %s", d.Name)
		}
		net.Devices[d.Name] = cfg
	}
	topo, err := netcfg.ParseTopology(m.Topology)
	if err != nil {
		return nil, fmt.Errorf("snap: topology: %w", err)
	}
	net.Topology = topo
	return net, nil
}

// PolicyText renders the manifest's policy lines back into the
// multi-line specification form the engine parses.
func (m *Manifest) PolicyText() string {
	if len(m.Policies) == 0 {
		return ""
	}
	return strings.Join(m.Policies, "\n") + "\n"
}

// trailer is the second line of a snapshot file.
type trailer struct {
	SHA256 string `json:"sha256"`
}

// Encode renders the manifest into the two-line file form. The encoding
// is deterministic: equal manifests produce byte-identical output.
func Encode(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	tr, err := json.Marshal(trailer{SHA256: hex.EncodeToString(sum[:])})
	if err != nil {
		return nil, err
	}
	return append(body, append(tr, '\n')...), nil
}

// Decode verifies and parses an encoded snapshot. Any verification
// failure — truncation, checksum mismatch, wrong format or version —
// returns an error wrapping ErrCorrupt.
func Decode(data []byte) (*Manifest, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, fmt.Errorf("%w: no manifest line", ErrCorrupt)
	}
	body, rest := data[:i+1], data[i+1:]
	var tr trailer
	if err := json.Unmarshal(bytes.TrimSuffix(rest, []byte("\n")), &tr); err != nil || tr.SHA256 == "" {
		return nil, fmt.Errorf("%w: missing or malformed checksum trailer", ErrCorrupt)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != tr.SHA256 {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Format != format {
		return nil, fmt.Errorf("%w: format %q (want %q)", ErrCorrupt, m.Format, format)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrCorrupt, m.Version, Version)
	}
	return &m, nil
}

// Path names the snapshot file for journalPath's state at seq. Snapshots
// live beside the journal, seq-stamped so newer sorts after older:
//
//	<journal>.snap.000000000042
func Path(journalPath string, seq uint64) string {
	return fmt.Sprintf("%s.snap.%012d", journalPath, seq)
}

// fileSeq parses name as a snapshot of the journal whose active file is
// base, returning the stamped sequence number.
func fileSeq(base, name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, base+".snap.")
	if !ok || len(rest) != 12 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// List returns journalPath's snapshot files sorted by stamped sequence
// number, oldest first. Files are not verified; see Latest.
func List(journalPath string) ([]string, error) {
	dir, base := filepath.Split(journalPath)
	if dir == "" {
		dir = "."
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type cand struct {
		seq  uint64
		path string
	}
	var cands []cand
	for _, de := range des {
		if seq, ok := fileSeq(base, de.Name()); ok {
			cands = append(cands, cand{seq, filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths, nil
}

// Latest returns journalPath's newest snapshot that passes
// verification: its raw bytes (servable as-is), the decoded manifest,
// and the file path. Corrupt or torn files are skipped — newest first,
// falling back to the previous good snapshot — and only I/O errors are
// returned. No valid snapshot yields (nil, nil, "", nil).
func Latest(journalPath string) (data []byte, m *Manifest, path string, err error) {
	paths, err := List(journalPath)
	if err != nil {
		return nil, nil, "", err
	}
	for i := len(paths) - 1; i >= 0; i-- {
		b, err := os.ReadFile(paths[i])
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between listing and read
			}
			return nil, nil, "", err
		}
		man, derr := Decode(b)
		if derr != nil {
			continue // torn or corrupt; fall back to an older snapshot
		}
		return b, man, paths[i], nil
	}
	return nil, nil, "", nil
}

// WriteFile encodes the manifest and writes it atomically (see
// WriteAtomic) to Path(journalPath, m.Seq), returning the final path
// and the file size. An existing snapshot at the same seq is replaced.
func WriteFile(journalPath string, m *Manifest) (string, int64, error) {
	data, err := Encode(m)
	if err != nil {
		return "", 0, err
	}
	path := Path(journalPath, m.Seq)
	if err := WriteAtomic(path, data); err != nil {
		return "", 0, err
	}
	return path, int64(len(data)), nil
}

// WriteAtomic durably replaces path with data: it writes and fsyncs
// path+".tmp", renames it over path, then fsyncs the directory so the
// rename itself survives a crash. Readers see the old file or the new
// one, never a partial write. It is the one durable-replace routine of
// a journal's directory: snapshots, the compaction sidecar and the
// epoch file all go through it.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the creations, renames and
// removals of entries in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Prune deletes journalPath's oldest snapshot files, keeping the newest
// keep (by stamped seq, regardless of validity — a corrupt newest file
// must not cause the fallback good one to be pruned, so keep ≥ 2 is the
// sensible floor). Returns how many files were removed.
func Prune(journalPath string, keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	paths, err := List(journalPath)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i < len(paths)-keep; i++ {
		if err := os.Remove(paths[i]); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
