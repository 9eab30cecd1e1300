// Specification mining (paper section 2): infer which reachability
// policies hold under every single link failure, the Config2Spec-style
// workload. The sweep explores each failure condition by applying it,
// re-verifying incrementally, and reverting — exploiting the similarity
// between conditions instead of recomputing each data plane from
// scratch (the paper measures this ~20x faster than non-incremental
// generation; see BenchmarkSpecMining_* in the root bench_test.go).
//
//	go run ./examples/specmining [-k 6] [-failures 24]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"realconfig"
)

func main() {
	k := flag.Int("k", 6, "fat-tree arity")
	maxFailures := flag.Int("failures", 24, "how many single-link failures to sweep (0 = all)")
	flag.Parse()

	net, err := realconfig.FatTree(*k, realconfig.OSPF)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d devices, %d links (OSPF)\n", len(net.Devices), len(net.Topology.Links))

	// Candidate specifications: edge-to-edge host reachability from one
	// pod's first edge switch to every other edge switch.
	var edges []string
	for _, name := range net.NodeNames {
		if strings.HasPrefix(name, "edge") {
			edges = append(edges, name)
		}
	}
	src := edges[0]
	var nCands int
	res, err := realconfig.Mine(net.Network,
		func(v *realconfig.Verifier) []realconfig.Policy {
			var cands []realconfig.Policy
			for _, dst := range edges[1:] {
				cands = append(cands, realconfig.Reachability{
					PolicyName: fmt.Sprintf("%s->%s", src, dst),
					Src:        src, Dst: dst,
					Hdr:  realconfig.Match{Dst: net.HostPrefix[dst]},
					Mode: realconfig.ReachAll,
				})
			}
			nCands = len(cands)
			return cands
		},
		realconfig.FailureModel{MaxLinkFailures: 1, Limit: *maxFailures},
		realconfig.Options{},
	)
	if err != nil {
		log.Fatal(err)
	}

	mined := res.Mined()
	perCond := float64(res.Elapsed.Milliseconds()) / float64(res.Conditions)
	fmt.Printf("explored %d conditions in %s (%.1fms per condition, incl. revert)\n",
		res.Conditions, res.Elapsed.Round(1_000_000), perCond)
	fmt.Printf("mined %d/%d specifications that hold under every single link failure\n",
		len(mined), nCands)
	for i, p := range mined {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(mined)-5)
			break
		}
		fmt.Println("  e.g.", p.Name())
	}
	for _, s := range res.Specs {
		if !s.Holds {
			fmt.Printf("  NOT failure-proof: %s (broken by %s)\n", s.Policy.Name(), s.BrokenBy)
		}
	}
}
