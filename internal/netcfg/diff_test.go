package netcfg

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestDiffLinesBasic(t *testing.T) {
	old := "a\nb\nc\n"
	new := "a\nx\nc\nd\n"
	got := DiffLines(old, new)
	want := []LineChange{
		{LineDelete, "b"},
		{LineInsert, "x"},
		{LineInsert, "d"},
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDiffLinesIgnoresSeparators(t *testing.T) {
	if d := DiffLines("a\n!\nb\n", "a\nb\n"); len(d) != 0 {
		t.Errorf("separator-only diff = %v", d)
	}
	if d := DiffLines("", ""); len(d) != 0 {
		t.Errorf("empty diff = %v", d)
	}
}

func TestDiffNetworksReportsChangedDeviceOnly(t *testing.T) {
	n1 := NewNetwork()
	n1.Devices["r1"] = MustParse("hostname r1\ninterface eth0\n ip address 10.0.0.1/30\n")
	n1.Devices["r2"] = MustParse("hostname r2\ninterface eth0\n ip address 10.0.0.2/30\n")
	n1.Topology.Add("r1", "eth0", "r2", "eth0")

	n2 := n1.Clone()
	n2.Devices["r1"].Intf("eth0").OSPFCost = 42

	d := DiffNetworks(n1, n2)
	if len(d.Devices) != 1 || len(d.Links) != 0 {
		t.Fatalf("diff = %+v", d)
	}
	ch := d.Devices["r1"]
	if len(ch) != 1 || ch[0].Op != LineInsert || ch[0].Line != " ip ospf cost 42" {
		t.Errorf("r1 changes = %v", ch)
	}
	if d.LineCount() != 1 || d.Empty() {
		t.Errorf("LineCount=%d Empty=%v", d.LineCount(), d.Empty())
	}
}

func TestDiffNetworksModificationIsDeletePlusInsert(t *testing.T) {
	n1 := NewNetwork()
	n1.Devices["r1"] = MustParse("hostname r1\ninterface eth0\n ip address 10.0.0.1/30\n ip ospf cost 1\n")
	n2 := n1.Clone()
	n2.Devices["r1"].Intf("eth0").OSPFCost = 100
	ch := DiffNetworks(n1, n2).Devices["r1"]
	if len(ch) != 2 {
		t.Fatalf("changes = %v", ch)
	}
	ops := map[LineOp]int{}
	for _, c := range ch {
		ops[c.Op]++
	}
	if ops[LineInsert] != 1 || ops[LineDelete] != 1 {
		t.Errorf("ops = %v, want one insert one delete", ch)
	}
}

func TestDiffNetworksDeviceAddRemoveAndLinks(t *testing.T) {
	n1 := NewNetwork()
	n1.Devices["r1"] = MustParse("hostname r1\n")
	n2 := NewNetwork()
	n2.Devices["r2"] = MustParse("hostname r2\n")
	n2.Topology.Add("r2", "e0", "r3", "e0")

	d := DiffNetworks(n1, n2)
	if len(d.Devices) != 2 {
		t.Fatalf("device diffs = %+v", d.Devices)
	}
	if d.Devices["r1"][0].Op != LineDelete || d.Devices["r2"][0].Op != LineInsert {
		t.Errorf("diffs = %+v", d.Devices)
	}
	if len(d.Links) != 1 || d.Links[0].Op != LineInsert {
		t.Errorf("link diffs = %+v", d.Links)
	}
	if d.Empty() {
		t.Error("non-empty diff reported Empty")
	}
}

func TestChangesApply(t *testing.T) {
	n := NewNetwork()
	n.Devices["r1"] = MustParse(sampleConfig)
	n.Devices["r1"].Hostname = "r1"
	n.Topology.Add("r1", "eth0", "r2", "eth0")

	steps := []Change{
		ShutdownInterface{Device: "r1", Intf: "eth0", Shutdown: true},
		SetOSPFCost{Device: "r1", Intf: "eth0", Cost: 100},
		SetLocalPref{Device: "r1", Neighbor: MustAddr("10.0.1.2"), LocalPref: 200},
		AddStaticRoute{Device: "r1", Route: StaticRoute{Prefix: MustPrefix("1.0.0.0/8"), NextHop: MustAddr("10.0.1.2")}},
		SetACL{Device: "r1", Name: "newacl", Lines: []ACLLine{{Seq: 10, Action: Permit}}},
		BindACL{Device: "r1", Intf: "eth1", Name: "newacl", In: true},
		RemoveLink{Link: NewLink("r1", "eth0", "r2", "eth0")},
		AddLink{Link: NewLink("r1", "eth0", "r3", "eth5")},
	}
	for _, s := range steps {
		if err := s.Apply(n); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
	cfg := n.Devices["r1"]
	if !cfg.Intf("eth0").Shutdown || cfg.Intf("eth0").OSPFCost != 100 {
		t.Error("interface changes not applied")
	}
	if cfg.Neighbor(MustAddr("10.0.1.2")).LocalPref != 200 {
		t.Error("local-pref change not applied")
	}
	if len(cfg.StaticRoutes) != 3 {
		t.Error("static route not added")
	}
	if cfg.ACL("newacl") == nil || cfg.Intf("eth1").ACLIn != "newacl" {
		t.Error("ACL changes not applied")
	}
	if len(n.Topology.Links) != 1 || n.Topology.Links[0] != NewLink("r1", "eth0", "r3", "eth5") {
		t.Errorf("topology = %+v", n.Topology.Links)
	}

	// Undo-style changes.
	undo := []Change{
		RemoveStaticRoute{Device: "r1", Route: StaticRoute{Prefix: MustPrefix("1.0.0.0/8"), NextHop: MustAddr("10.0.1.2")}},
		SetACL{Device: "r1", Name: "newacl", Lines: nil},
		BindACL{Device: "r1", Intf: "eth1", Name: "", In: true},
	}
	for _, s := range undo {
		if err := s.Apply(n); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if len(cfg.StaticRoutes) != 2 || cfg.ACL("newacl") != nil || cfg.Intf("eth1").ACLIn != "" {
		t.Error("undo changes not applied")
	}
}

func TestChangesErrors(t *testing.T) {
	n := NewNetwork()
	n.Devices["r1"] = MustParse("hostname r1\ninterface eth0\n ip address 10.0.0.1/30\n")
	bad := []Change{
		ShutdownInterface{Device: "nope", Intf: "eth0"},
		ShutdownInterface{Device: "r1", Intf: "nope"},
		SetLocalPref{Device: "r1", Neighbor: MustAddr("9.9.9.9")},
		RemoveStaticRoute{Device: "r1", Route: StaticRoute{Prefix: MustPrefix("1.0.0.0/8")}},
		SetACL{Device: "r1", Name: "ghost", Lines: nil},
		RemoveLink{Link: NewLink("a", "b", "c", "d")},
		AddStaticRoute{Device: "ghost"},
	}
	for _, s := range bad {
		if err := s.Apply(n); err == nil {
			t.Errorf("%v applied without error", s)
		}
	}
	// Duplicate static route.
	r := StaticRoute{Prefix: MustPrefix("1.0.0.0/8"), NextHop: MustAddr("10.0.0.2")}
	if err := (AddStaticRoute{Device: "r1", Route: r}).Apply(n); err != nil {
		t.Fatal(err)
	}
	if err := (AddStaticRoute{Device: "r1", Route: r}).Apply(n); err == nil {
		t.Error("duplicate static route accepted")
	}
}

// refDiffLines is DiffLines as it was before the common leading lines
// were trimmed: the whole LCS table over every significant line. The
// property test holds the trimmed version to it byte for byte.
func refDiffLines(oldText, newText string) []LineChange {
	a := significantLines(oldText)
	b := significantLines(newText)
	// lcs[i][j] = LCS length of a[i:], b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out []LineChange
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			out = append(out, LineChange{Op: LineDelete, Line: a[i]})
			i++
		default:
			out = append(out, LineChange{Op: LineInsert, Line: b[j]})
			j++
		}
	}
	for ; i < len(a); i++ {
		out = append(out, LineChange{Op: LineDelete, Line: a[i]})
	}
	for ; j < len(b); j++ {
		out = append(out, LineChange{Op: LineInsert, Line: b[j]})
	}
	return out
}

// TestDiffLinesMatchesReference compares DiffLines with refDiffLines on
// seeded random text pairs: an old text drawn from a few repeated lines
// (so ties in the LCS are common), a separator and a trailing blank, and
// a new text made from it by random inserts, deletes and rewrites. About
// one pair in sixty tells trimming a common trailing run from not
// trimming it.
func TestDiffLinesMatchesReference(t *testing.T) {
	vocab := []string{"a", "b", "c", "a", "b", " shutdown", "!", "b "}
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		old := make([]string, rng.Intn(12))
		for i := range old {
			old[i] = vocab[rng.Intn(len(vocab))]
		}
		next := append([]string(nil), old...)
		for e := 1 + rng.Intn(5); e > 0; e-- {
			at := rng.Intn(len(next) + 1)
			switch line := vocab[rng.Intn(len(vocab))]; rng.Intn(3) {
			case 0:
				next = append(next[:at], append([]string{line}, next[at:]...)...)
			case 1:
				if at < len(next) {
					next = append(next[:at], next[at+1:]...)
				}
			default:
				if at < len(next) {
					next[at] = line
				}
			}
		}
		oldText, newText := strings.Join(old, "\n"), strings.Join(next, "\n")
		got, want := DiffLines(oldText, newText), refDiffLines(oldText, newText)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: DiffLines(%q, %q)\n got  %v\n want %v", seed, oldText, newText, got, want)
		}
	}
}
