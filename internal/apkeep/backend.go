package apkeep

import (
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// This file is the model's policy.Model surface:
// backend-neutral match predicates evaluated symbolically in the model's
// own BDD table.

// Backend identifies the model implementation for CLI selection, journal
// metadata and reports.
func (m *Model) Backend() string { return "bdd" }

// Pred interns match's packet space as a predicate in the model's table.
// Predicates are cached per model: relevance tests re-intern the same
// handful of policy header spaces on every update.
func (m *Model) Pred(match dataplane.Match) bdd.Node {
	if p, ok := m.preds[match]; ok {
		return p
	}
	p := m.H.Match(match)
	if m.preds == nil {
		m.preds = make(map[dataplane.Match]bdd.Node)
	}
	m.preds[match] = p
	return p
}

// MatchOverlaps implements policy.Model.
func (m *Model) MatchOverlaps(match dataplane.Match, ec bdd.Node) bool {
	return m.H.Overlaps(m.Pred(match), ec)
}

// Witness implements policy.Model.
func (m *Model) Witness(ec bdd.Node) (bdd.Packet, bool) { return m.H.Witness(ec) }

// WitnessIn implements policy.Model.
func (m *Model) WitnessIn(match dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	return m.H.Witness(m.H.And(m.Pred(match), ec))
}

// ContainsPacket reports whether pkt belongs to ec.
func (m *Model) ContainsPacket(ec bdd.Node, pkt bdd.Packet) bool {
	return m.H.Contains(ec, pkt)
}
