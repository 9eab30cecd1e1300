package snap

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"realconfig/internal/core"
)

// testNet loads the campus fixture relative to this package.
func testNet(t *testing.T) *Manifest {
	t.Helper()
	net, err := core.LoadNetworkDir(filepath.Join("..", "..", "testdata", "campus"))
	if err != nil {
		t.Fatal(err)
	}
	return Capture(net, []string{"reach a edge1 edge2 10.10.2.0/24 all"}, 7, 42,
		json.RawMessage(`{"linesChanged":3}`))
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two snapshots of the same state are not byte-identical")
	}
}

func TestRoundTrip(t *testing.T) {
	m := testNet(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Epoch != 42 || got.Backend != "bdd" {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	if len(got.Policies) != 1 || got.Policies[0] != m.Policies[0] {
		t.Fatalf("policies mismatch: %v", got.Policies)
	}
	net, err := got.Network()
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Devices) != 6 || net.Devices["border"] == nil {
		t.Fatalf("restored network has %d devices", len(net.Devices))
	}
	// Restored state re-captures to identical bytes: the round trip
	// loses nothing the format carries.
	again, err := Encode(Capture(net, got.Policies, got.Seq, got.Epoch, got.LastReport))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-captured snapshot differs from the original")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"no manifest":  []byte("{}"),
		"truncated":    data[:len(data)/2],
		"bit flip":     append([]byte{data[10] ^ 1}, data[1:]...),
		"no trailer":   data[:len(data)-len(`{"sha256":"x"}`)-1],
		"bad trailer":  append(append([]byte(nil), data[:40]...), []byte("\nnot json\n")...),
		"wrong format": mustEncodeRaw(t, `{"format":"other","version":1}`),
		"bad version":  mustEncodeRaw(t, `{"format":"realconfig-snapshot","version":99}`),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// mustEncodeRaw builds a correctly checksummed file around an arbitrary
// manifest line, for testing manifest-level rejection.
func mustEncodeRaw(t *testing.T, manifest string) []byte {
	t.Helper()
	var m Manifest
	if err := json.Unmarshal([]byte(manifest), &m); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(&m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLatestSkipsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal")
	m := testNet(t)

	m.Seq = 3
	goodPath, _, err := WriteFile(journal, m)
	if err != nil {
		t.Fatal(err)
	}
	m.Seq = 9
	tornPath, _, err := WriteFile(journal, m)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest snapshot mid-file, as a crash during a non-atomic
	// copy (or disk corruption) would.
	b, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	data, man, path, err := Latest(journal)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Seq != 3 || path != goodPath {
		t.Fatalf("Latest = seq %v path %q, want the previous good snapshot at seq 3", man, path)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("Latest returned unverifiable bytes: %v", err)
	}
}

func TestLatestEmpty(t *testing.T) {
	dir := t.TempDir()
	data, man, path, err := Latest(filepath.Join(dir, "journal"))
	if err != nil || data != nil || man != nil || path != "" {
		t.Fatalf("Latest on empty dir = (%v, %v, %q, %v)", data, man, path, err)
	}
	if _, _, _, err := Latest(filepath.Join(dir, "missing", "journal")); err != nil {
		t.Fatalf("Latest on missing dir: %v", err)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal")
	m := testNet(t)
	for _, seq := range []uint64{1, 5, 9} {
		m.Seq = seq
		if _, _, err := WriteFile(journal, m); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := Prune(journal, 2)
	if err != nil || removed != 1 {
		t.Fatalf("Prune = (%d, %v), want (1, nil)", removed, err)
	}
	paths, err := List(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] != Path(journal, 5) || paths[1] != Path(journal, 9) {
		t.Fatalf("after prune: %v", paths)
	}
}

// TestWriteAtomic: the durable-replace helper replaces an existing file
// with exactly the new bytes, leaves no temporary file behind, and fails
// without creating anything when the directory does not exist.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.epoch")
	for _, want := range []string{"1\n", "22\n"} {
		if err := WriteAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("after writing %q: read (%q, %v)", want, got, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "journal.epoch" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only journal.epoch", names)
	}

	missing := filepath.Join(dir, "missing", "journal.epoch")
	if err := WriteAtomic(missing, []byte("1\n")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("write into a missing directory: err = %v, want ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Dir(missing)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write created its directory: %v", err)
	}
	if err := SyncDir(filepath.Dir(missing)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir of a missing directory: err = %v, want ErrNotExist", err)
	}
}
