package netcfg

import (
	"fmt"
	"strings"
)

// LineOp says whether a diffed line was inserted or deleted. The paper
// defines configuration changes exactly this way: "insertions or
// deletions of configuration lines" (modifications are a delete plus an
// insert).
type LineOp uint8

// Line operations.
const (
	LineInsert LineOp = iota
	LineDelete
)

func (op LineOp) String() string {
	if op == LineDelete {
		return "-"
	}
	return "+"
}

// LineChange is one inserted or deleted configuration line.
type LineChange struct {
	Op   LineOp
	Line string
}

func (c LineChange) String() string { return fmt.Sprintf("%s %s", c.Op, c.Line) }

// DiffLines computes a minimal line-level diff between two texts using
// the LCS dynamic program (configurations are small enough that O(n*m)
// is irrelevant). Blank and separator ('!') lines are ignored, matching
// how Parse treats them.
func DiffLines(oldText, newText string) []LineChange {
	if oldText == newText {
		return nil
	}
	a := significantLines(oldText)
	b := significantLines(newText)
	// The traceback below matches equal lines first, so it walks a common
	// leading run without output; dropping the run leaves the output
	// unchanged. A common trailing run is kept: the traceback prefers
	// deletions on ties, and trimming it could reorder the output.
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	a, b = a[p:], b[p:]
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

func significantLines(text string) []string {
	var out []string
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimRight(raw, " \t")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed[0] == '!' || trimmed[0] == '#' {
			continue
		}
		out = append(out, line)
	}
	return out
}

// DiffNetworks formats both networks' device configurations canonically
// and returns the per-device line changes, plus topology link changes.
// It is the "what changed" view an operator reviews before verification.
type NetworkDiff struct {
	Devices map[string][]LineChange // device -> config line changes
	Links   []LinkChange
}

// LinkChange is an added or removed physical link.
type LinkChange struct {
	Op   LineOp
	Link Link
}

// Empty reports whether the diff contains no changes.
func (d *NetworkDiff) Empty() bool { return len(d.Devices) == 0 && len(d.Links) == 0 }

// LineCount returns the total number of changed configuration lines,
// the unit the paper uses to measure change size.
func (d *NetworkDiff) LineCount() int {
	n := 0
	for _, ch := range d.Devices {
		n += len(ch)
	}
	return n
}

// DiffNetworks diffs old against new. A device whose *Config is the
// same object on both sides, and the topology when its *Topology is, is
// skipped without formatting: the same object has the same content.
// Networks built copy-on-write from one another (see Network) share
// everything a change did not touch, so diffing them costs what the
// change touched.
func DiffNetworks(oldNet, newNet *Network) *NetworkDiff {
	d := &NetworkDiff{Devices: make(map[string][]LineChange)}
	for name, oldCfg := range oldNet.Devices {
		newCfg, ok := newNet.Devices[name]
		if ok && newCfg == oldCfg {
			continue
		}
		newText := ""
		if ok {
			newText = newCfg.Format()
		}
		if ch := DiffLines(oldCfg.Format(), newText); len(ch) > 0 {
			d.Devices[name] = ch
		}
	}
	for name, newCfg := range newNet.Devices {
		if _, ok := oldNet.Devices[name]; !ok {
			if ch := DiffLines("", newCfg.Format()); len(ch) > 0 {
				d.Devices[name] = ch
			}
		}
	}
	d.Links = DiffLinks(oldNet.Topology, newNet.Topology)
	return d
}

// DiffLinks returns the links added to and removed from old in new:
// additions in new's order, then removals in old's. The same *Topology
// on both sides has no changes and is not scanned.
func DiffLinks(oldTopo, newTopo *Topology) []LinkChange {
	if oldTopo == newTopo {
		return nil
	}
	oldLinks := make(map[Link]bool)
	for _, l := range oldTopo.Links {
		oldLinks[l] = true
	}
	var out []LinkChange
	newLinks := make(map[Link]bool)
	for _, l := range newTopo.Links {
		newLinks[l] = true
		if !oldLinks[l] {
			out = append(out, LinkChange{Op: LineInsert, Link: l})
		}
	}
	for _, l := range oldTopo.Links {
		if !newLinks[l] {
			out = append(out, LinkChange{Op: LineDelete, Link: l})
		}
	}
	return out
}
