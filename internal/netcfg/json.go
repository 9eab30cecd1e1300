package netcfg

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// This file gives the configuration-change vocabulary a lossless JSON
// wire form. Two consumers depend on it: the rcserved HTTP API (clients
// POST change batches) and the append-only change journal (applied
// batches are persisted and replayed on restart). Addresses and prefixes
// marshal as their dotted-quad text so journals and API payloads stay
// human-readable; a Change marshals as its struct fields plus a "kind"
// discriminator so the union decodes back to the concrete type.

// MarshalJSON renders the address as its dotted-quad string.
func (a Addr) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON parses a dotted-quad string.
func (a *Addr) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseAddr(s)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// MarshalJSON renders the prefix as "a.b.c.d/len".
func (p Prefix) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON parses "a.b.c.d/len".
func (p *Prefix) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParsePrefix(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// MarshalJSON renders the interface address as "a.b.c.d/len" (host bits
// preserved).
func (ia InterfaceAddr) MarshalJSON() ([]byte, error) { return json.Marshal(ia.String()) }

// UnmarshalJSON parses "a.b.c.d/len" keeping host bits.
func (ia *InterfaceAddr) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseInterfaceAddr(s)
	if err != nil {
		return err
	}
	*ia = v
	return nil
}

// MarshalJSON renders the action as "permit" or "deny".
func (a ACLAction) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON parses "permit" or "deny".
func (a *ACLAction) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "permit":
		*a = Permit
	case "deny":
		*a = Deny
	default:
		return fmt.Errorf("netcfg: bad ACL action %q", s)
	}
	return nil
}

// MarshalJSON renders the protocol selector as its keyword ("ip", "tcp",
// "udp", "icmp").
func (p IPProto) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON parses a protocol keyword.
func (p *IPProto) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "ip":
		*p = ProtoIPAny
	case "icmp":
		*p = ProtoICMP
	case "tcp":
		*p = ProtoTCP
	case "udp":
		*p = ProtoUDP
	default:
		return fmt.Errorf("netcfg: bad IP protocol %q", s)
	}
	return nil
}

// MarshalJSON renders the line operation as "+" (insert) or "-" (delete).
func (op LineOp) MarshalJSON() ([]byte, error) { return json.Marshal(op.String()) }

// UnmarshalJSON parses "+" or "-".
func (op *LineOp) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "+":
		*op = LineInsert
	case "-":
		*op = LineDelete
	default:
		return fmt.Errorf("netcfg: bad line op %q", s)
	}
	return nil
}

// changeKinds maps each wire discriminator to its concrete change type:
// the one table that DecodeChange reads forwards and kindOf in reverse.
var changeKinds = map[string]reflect.Type{
	"shutdown_interface":   reflect.TypeFor[ShutdownInterface](),
	"set_ospf_cost":        reflect.TypeFor[SetOSPFCost](),
	"set_local_pref":       reflect.TypeFor[SetLocalPref](),
	"add_static_route":     reflect.TypeFor[AddStaticRoute](),
	"remove_static_route":  reflect.TypeFor[RemoveStaticRoute](),
	"set_acl":              reflect.TypeFor[SetACL](),
	"bind_acl":             reflect.TypeFor[BindACL](),
	"set_prefix_list":      reflect.TypeFor[SetPrefixList](),
	"bind_neighbor_filter": reflect.TypeFor[BindNeighborFilter](),
	"set_aggregate":        reflect.TypeFor[SetAggregate](),
	"add_link":             reflect.TypeFor[AddLink](),
	"remove_link":          reflect.TypeFor[RemoveLink](),
}

// kindOf returns c's wire discriminator.
func kindOf(c Change) (string, error) {
	for kind, t := range changeKinds {
		if t == reflect.TypeOf(c) {
			return kind, nil
		}
	}
	return "", fmt.Errorf("netcfg: change type %T has no JSON encoding", c)
}

// ChangeKinds lists the wire discriminators accepted by DecodeChange, in
// sorted order (for error messages and API docs).
func ChangeKinds() []string {
	out := make([]string, 0, len(changeKinds))
	for k := range changeKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EncodeChange marshals a typed change as a flat JSON object carrying the
// change's fields plus a "kind" discriminator.
func EncodeChange(c Change) (json.RawMessage, error) {
	kind, err := kindOf(c)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return nil, err
	}
	fields["kind"], _ = json.Marshal(kind)
	return json.Marshal(fields)
}

// DecodeChange parses a JSON object produced by EncodeChange (or written
// by hand with a "kind" field) back into the concrete Change.
func DecodeChange(raw json.RawMessage) (Change, error) {
	var env struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("netcfg: bad change object: %w", err)
	}
	t, ok := changeKinds[env.Kind]
	if !ok {
		return nil, fmt.Errorf("netcfg: unknown change kind %q (want one of %v)", env.Kind, ChangeKinds())
	}
	c := reflect.New(t)
	if err := json.Unmarshal(raw, c.Interface()); err != nil {
		return nil, fmt.Errorf("netcfg: bad %s change: %w", env.Kind, err)
	}
	return c.Elem().Interface().(Change), nil
}

// EncodeChanges marshals a batch of changes.
func EncodeChanges(changes []Change) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(changes))
	for i, c := range changes {
		raw, err := EncodeChange(c)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// DecodeChanges parses a batch of change objects.
func DecodeChanges(raws []json.RawMessage) ([]Change, error) {
	out := make([]Change, len(raws))
	for i, raw := range raws {
		c, err := DecodeChange(raw)
		if err != nil {
			return nil, fmt.Errorf("change %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}
