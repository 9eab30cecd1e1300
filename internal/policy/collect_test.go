package policy

import (
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

// TestCheckRootsReportsDeadNode plants an id that is not an EC in each
// structure CheckRoots covers (walk results, a registration index entry)
// and requires each to be reported.
func TestCheckRootsReportsDeadNode(t *testing.T) {
	var dead apkeep.ECID // past the end of the table once the walk grew it
	for name, plant := range map[string]func(c *Checker){
		"ecs": func(c *Checker) { c.ecs = append(c.ecs, unwalked) },
		"index": func(c *Checker) {
			for _, e := range c.index {
				e.ecs[dead] = struct{}{}
			}
		},
	} {
		_, c := lineModel(t)
		c.Update(nil, nil)
		dead = apkeep.ECID(len(c.ecs))
		c.AddPolicy(Reachability{PolicyName: "a-c", Src: "a", Dst: "c", Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}})
		if err := c.CheckRoots(); err != nil {
			t.Fatalf("%s: clean checker: %v", name, err)
		}
		plant(c)
		if c.CheckRoots() == nil {
			t.Errorf("%s: CheckRoots missed the planted node", name)
		}
	}
}
