package apkeep

import (
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// This file is the surface the policy checker queries: dataplane.Match
// header spaces evaluated symbolically in the model's own BDD table.

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

// MatchOverlaps reports whether match's packet space intersects ec.
func (m *Model) MatchOverlaps(match dataplane.Match, ec bdd.Node) bool {
	return m.H.Overlaps(m.Pred(match), ec)
}

// Witness returns a concrete packet in ec.
func (m *Model) Witness(ec bdd.Node) (bdd.Packet, bool) { return m.H.Witness(ec) }

// WitnessIn returns a concrete packet in the intersection of match and ec.
func (m *Model) WitnessIn(match dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	return m.H.Witness(m.H.And(m.Pred(match), ec))
}

// ContainsPacket reports whether pkt belongs to ec.
func (m *Model) ContainsPacket(ec bdd.Node, pkt bdd.Packet) bool {
	return m.H.Contains(ec, pkt)
}
