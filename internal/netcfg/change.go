package netcfg

import "fmt"

// Change is a typed configuration change that can be applied to a
// Network. Changes are the programmatic counterpart of editing
// configuration lines; benchmarks and the planning workflow use them to
// generate the paper's change workloads (LinkFailure, LC, LP, ...).
type Change interface {
	// Apply mutates the network in place.
	Apply(n *Network) error
	// Touches names everything Apply may mutate: the devices whose
	// configuration it edits, and whether it edits the topology's links.
	// Apply must leave every other device's Config and, unless links is
	// true, the Topology untouched. Copy-on-write appliers rely on it to
	// clone only what a change writes.
	Touches() (devices []string, links bool)
	// String describes the change for logs and reports.
	String() string
}

// ShutdownInterface deactivates (or reactivates) an interface: the
// paper's "LinkFailure" change.
type ShutdownInterface struct {
	Device, Intf string
	Shutdown     bool // false = bring the interface back up
}

// Apply implements Change.
func (c ShutdownInterface) Apply(n *Network) error {
	i, err := findIntf(n, c.Device, c.Intf)
	if err != nil {
		return err
	}
	i.Shutdown = c.Shutdown
	return nil
}

// Touches implements Change.
func (c ShutdownInterface) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c ShutdownInterface) String() string {
	verb := "no shutdown"
	if c.Shutdown {
		verb = "shutdown"
	}
	return fmt.Sprintf("%s: interface %s %s", c.Device, c.Intf, verb)
}

// SetOSPFCost changes an interface's OSPF link cost: the paper's "LC"
// change.
type SetOSPFCost struct {
	Device, Intf string
	Cost         uint32
}

// Apply implements Change.
func (c SetOSPFCost) Apply(n *Network) error {
	i, err := findIntf(n, c.Device, c.Intf)
	if err != nil {
		return err
	}
	i.OSPFCost = c.Cost
	return nil
}

// Touches implements Change.
func (c SetOSPFCost) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c SetOSPFCost) String() string {
	return fmt.Sprintf("%s: interface %s ip ospf cost %d", c.Device, c.Intf, c.Cost)
}

// SetLocalPref changes the BGP local preference applied to routes
// received from a neighbor: the paper's "LP" change.
type SetLocalPref struct {
	Device    string
	Neighbor  Addr
	LocalPref uint32
}

// Apply implements Change.
func (c SetLocalPref) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	nb := cfg.Neighbor(c.Neighbor)
	if nb == nil {
		return fmt.Errorf("netcfg: %s has no neighbor %s", c.Device, c.Neighbor)
	}
	nb.LocalPref = c.LocalPref
	return nil
}

// Touches implements Change.
func (c SetLocalPref) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c SetLocalPref) String() string {
	return fmt.Sprintf("%s: neighbor %s local-preference %d", c.Device, c.Neighbor, c.LocalPref)
}

// AddStaticRoute installs a static route.
type AddStaticRoute struct {
	Device string
	Route  StaticRoute
}

// Apply implements Change.
func (c AddStaticRoute) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	for _, r := range cfg.StaticRoutes {
		if r == c.Route {
			return fmt.Errorf("netcfg: %s already has route %v", c.Device, c.Route)
		}
	}
	cfg.StaticRoutes = append(cfg.StaticRoutes, c.Route)
	return nil
}

// Touches implements Change.
func (c AddStaticRoute) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c AddStaticRoute) String() string {
	if c.Route.Drop {
		return fmt.Sprintf("%s: ip route %s drop", c.Device, c.Route.Prefix)
	}
	return fmt.Sprintf("%s: ip route %s %s", c.Device, c.Route.Prefix, c.Route.NextHop)
}

// RemoveStaticRoute deletes a static route.
type RemoveStaticRoute struct {
	Device string
	Route  StaticRoute
}

// Apply implements Change.
func (c RemoveStaticRoute) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	for i, r := range cfg.StaticRoutes {
		if r == c.Route {
			cfg.StaticRoutes = append(cfg.StaticRoutes[:i], cfg.StaticRoutes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("netcfg: %s has no route %v", c.Device, c.Route)
}

// Touches implements Change.
func (c RemoveStaticRoute) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c RemoveStaticRoute) String() string {
	return fmt.Sprintf("%s: no ip route %s", c.Device, c.Route.Prefix)
}

// SetACL replaces (or with nil lines, removes) a named ACL definition.
type SetACL struct {
	Device string
	Name   string
	Lines  []ACLLine
}

// Apply implements Change.
func (c SetACL) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	for i, a := range cfg.ACLs {
		if a.Name == c.Name {
			if c.Lines == nil {
				cfg.ACLs = append(cfg.ACLs[:i], cfg.ACLs[i+1:]...)
			} else {
				a.Lines = append([]ACLLine(nil), c.Lines...)
			}
			return nil
		}
	}
	if c.Lines == nil {
		return fmt.Errorf("netcfg: %s has no access-list %q", c.Device, c.Name)
	}
	cfg.ACLs = append(cfg.ACLs, &ACL{Name: c.Name, Lines: append([]ACLLine(nil), c.Lines...)})
	return nil
}

// Touches implements Change.
func (c SetACL) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c SetACL) String() string {
	if c.Lines == nil {
		return fmt.Sprintf("%s: no access-list %s", c.Device, c.Name)
	}
	return fmt.Sprintf("%s: access-list %s (%d lines)", c.Device, c.Name, len(c.Lines))
}

// BindACL attaches (or with empty name, detaches) an ACL to an
// interface direction.
type BindACL struct {
	Device, Intf string
	Name         string
	In           bool // true = inbound, false = outbound
}

// Apply implements Change.
func (c BindACL) Apply(n *Network) error {
	i, err := findIntf(n, c.Device, c.Intf)
	if err != nil {
		return err
	}
	if c.In {
		i.ACLIn = c.Name
	} else {
		i.ACLOut = c.Name
	}
	return nil
}

// Touches implements Change.
func (c BindACL) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c BindACL) String() string {
	dir := "out"
	if c.In {
		dir = "in"
	}
	return fmt.Sprintf("%s: interface %s ip access-group %s %s", c.Device, c.Intf, c.Name, dir)
}

// SetPrefixList replaces (or with nil entries, removes) a named prefix
// list definition.
type SetPrefixList struct {
	Device  string
	Name    string
	Entries []PrefixListEntry
}

// Apply implements Change.
func (c SetPrefixList) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	for i, pl := range cfg.PrefixLists {
		if pl.Name == c.Name {
			if c.Entries == nil {
				cfg.PrefixLists = append(cfg.PrefixLists[:i], cfg.PrefixLists[i+1:]...)
			} else {
				pl.Entries = append([]PrefixListEntry(nil), c.Entries...)
			}
			return nil
		}
	}
	if c.Entries == nil {
		return fmt.Errorf("netcfg: %s has no prefix-list %q", c.Device, c.Name)
	}
	cfg.PrefixLists = append(cfg.PrefixLists, &PrefixList{Name: c.Name, Entries: append([]PrefixListEntry(nil), c.Entries...)})
	return nil
}

// Touches implements Change.
func (c SetPrefixList) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c SetPrefixList) String() string {
	if c.Entries == nil {
		return fmt.Sprintf("%s: no prefix-list %s", c.Device, c.Name)
	}
	return fmt.Sprintf("%s: prefix-list %s (%d entries)", c.Device, c.Name, len(c.Entries))
}

// BindNeighborFilter attaches (or with empty name, detaches) a prefix
// list to a BGP neighbor's import or export direction.
type BindNeighborFilter struct {
	Device   string
	Neighbor Addr
	Name     string
	In       bool // true = import filter, false = export filter
}

// Apply implements Change.
func (c BindNeighborFilter) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	nb := cfg.Neighbor(c.Neighbor)
	if nb == nil {
		return fmt.Errorf("netcfg: %s has no neighbor %s", c.Device, c.Neighbor)
	}
	if c.In {
		nb.FilterIn = c.Name
	} else {
		nb.FilterOut = c.Name
	}
	return nil
}

// Touches implements Change.
func (c BindNeighborFilter) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c BindNeighborFilter) String() string {
	dir := "out"
	if c.In {
		dir = "in"
	}
	return fmt.Sprintf("%s: neighbor %s prefix-list %s %s", c.Device, c.Neighbor, c.Name, dir)
}

// SetAggregate adds or removes a BGP aggregate-address.
type SetAggregate struct {
	Device string
	Prefix Prefix
	Remove bool
}

// Apply implements Change.
func (c SetAggregate) Apply(n *Network) error {
	cfg, ok := n.Devices[c.Device]
	if !ok {
		return fmt.Errorf("netcfg: no device %q", c.Device)
	}
	if cfg.BGP == nil {
		return fmt.Errorf("netcfg: %s does not run BGP", c.Device)
	}
	for i, a := range cfg.BGP.Aggregates {
		if a == c.Prefix {
			if c.Remove {
				cfg.BGP.Aggregates = append(cfg.BGP.Aggregates[:i], cfg.BGP.Aggregates[i+1:]...)
				return nil
			}
			return fmt.Errorf("netcfg: %s already aggregates %s", c.Device, c.Prefix)
		}
	}
	if c.Remove {
		return fmt.Errorf("netcfg: %s has no aggregate %s", c.Device, c.Prefix)
	}
	cfg.BGP.Aggregates = append(cfg.BGP.Aggregates, c.Prefix)
	return nil
}

// Touches implements Change.
func (c SetAggregate) Touches() ([]string, bool) { return []string{c.Device}, false }

func (c SetAggregate) String() string {
	if c.Remove {
		return fmt.Sprintf("%s: no aggregate-address %s", c.Device, c.Prefix)
	}
	return fmt.Sprintf("%s: aggregate-address %s", c.Device, c.Prefix)
}

// AddLink adds a physical link to the topology.
type AddLink struct{ Link Link }

// Apply implements Change.
func (c AddLink) Apply(n *Network) error {
	n.Topology.Add(c.Link.DevA, c.Link.IntfA, c.Link.DevB, c.Link.IntfB)
	return nil
}

// Touches implements Change.
func (c AddLink) Touches() ([]string, bool) { return nil, true }

func (c AddLink) String() string { return "add " + c.Link.String() }

// RemoveLink removes a physical link.
type RemoveLink struct{ Link Link }

// Apply implements Change.
func (c RemoveLink) Apply(n *Network) error {
	if !n.Topology.Remove(c.Link.DevA, c.Link.IntfA, c.Link.DevB, c.Link.IntfB) {
		return fmt.Errorf("netcfg: no such link %v", c.Link)
	}
	return nil
}

// Touches implements Change.
func (c RemoveLink) Touches() ([]string, bool) { return nil, true }

func (c RemoveLink) String() string { return "remove " + c.Link.String() }

func findIntf(n *Network, dev, intf string) (*Interface, error) {
	cfg, ok := n.Devices[dev]
	if !ok {
		return nil, fmt.Errorf("netcfg: no device %q", dev)
	}
	i := cfg.Intf(intf)
	if i == nil {
		return nil, fmt.Errorf("netcfg: %s has no interface %q", dev, intf)
	}
	return i, nil
}
